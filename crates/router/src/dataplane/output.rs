//! The shared output-port scheduler: one queue + transmit state machine
//! for every node type.
//!
//! Extracted from the VIPER router and reused by the IP and CVC
//! baselines; the discipline differs ([`Discipline::Priority`] with
//! preemption vs [`Discipline::Fifo`] with O(1) `pop_front`), the state
//! machine and the drop-tail accounting do not. Router-specific policy
//! (rate-limit release times and charging) hooks in via
//! [`ServiceHooks`] so the scheduler itself stays policy-free.
//!
//! A port hears that its transmission ended only when it needs to: it
//! arms the engine's completion while a frame waits behind the
//! transmission, and otherwise asks [`Context::tx_finished`] before it
//! next looks at the slot. An idle port's transmissions finish without
//! an event.

use std::collections::VecDeque;

use sirpent_sim::stats::{DropReason, PipelineStats, Stage};
use sirpent_sim::{Context, FrameId, SimTime};
use sirpent_telemetry::HopKind;
use sirpent_wire::buf::FrameBuf;
use sirpent_wire::viper::Priority;

/// Queue service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Strict FIFO: only the head is considered, `pop_front` is O(1).
    /// The IP and CVC baselines use this.
    Fifo,
    /// VIPER's priority service: highest rank first, FIFO within rank,
    /// priorities 6/7 preempt an in-progress lower-priority
    /// transmission, and drop-if-blocked packets are discarded when the
    /// port is busy.
    Priority,
}

/// A frame waiting on an output port.
pub struct Queued {
    /// The composed link frame: owned link header + shared packet body.
    pub frame: FrameBuf,
    /// Service priority (ignored under [`Discipline::Fifo`]).
    pub priority: Priority,
    /// Drop-if-blocked flag: discard instead of waiting behind a busy
    /// port.
    pub dib: bool,
    /// Earliest instant the transmission may start (cut-through: we may
    /// not finish sending before the tail has arrived).
    pub earliest: SimTime,
    /// Port field of the packet's *next* segment — the classification
    /// key for upstream rate limits.
    pub next_seg_port: Option<u8>,
    /// The port this packet arrived on (identifies the feeder for
    /// backpressure); `None` for locally originated packets.
    pub arrival_port: Option<u8>,
    /// When `Some(first_bit)`, the scheduler counts the packet as
    /// forwarded at transmit start and records `start − first_bit` as
    /// its forward delay. `None` for nodes that account forwarding
    /// elsewhere (the CVC switch records at handle time).
    pub record: Option<SimTime>,
    /// The incoming frame this one was cut from, for abort propagation
    /// (every copy of a fanned-out packet carries it).
    pub in_frame: Option<FrameId>,
    /// Flight-recorder packet identity; `None` when the recorder is off.
    pub flight_key: Option<u64>,
    /// When the frame entered the queue; assigned by
    /// [`OutputPort::push`] (whatever the caller sets is overwritten)
    /// and used to account the queue-wait histogram at transmit start.
    pub enqueued_at: SimTime,
    /// FIFO tie-break sequence; assigned by [`OutputPort::push`]
    /// (whatever the caller sets is overwritten).
    pub seq: u64,
}

impl Queued {
    /// A plain FIFO frame: default priority, no cut-through constraint
    /// beyond `now`, no rate-limit key, accounting per `record`.
    pub fn fifo(frame: FrameBuf, now: SimTime, record: Option<SimTime>) -> Queued {
        Queued {
            frame,
            priority: Priority::default(),
            dib: false,
            earliest: now,
            next_seg_port: None,
            arrival_port: None,
            record,
            in_frame: None,
            flight_key: None,
            enqueued_at: now,
            seq: 0,
        }
    }
}

/// Scan winner: the queue index plus the decision metadata (all `Copy`)
/// the commit path needs, captured while the scan still holds the
/// element so nothing is re-indexed afterwards.
#[derive(Clone, Copy)]
struct Best {
    idx: usize,
    rank: i8,
    seq: u64,
    priority: Priority,
    dib: bool,
}

impl Best {
    fn of(idx: usize, q: &Queued) -> Best {
        Best {
            idx,
            rank: q.priority.rank(),
            seq: q.seq,
            priority: q.priority,
            dib: q.dib,
        }
    }

    /// Whether this winner keeps its seat against candidate `q`: higher
    /// rank, or equal rank and earlier sequence (FIFO within rank).
    fn outranks(&self, q: &Queued) -> bool {
        (self.rank, u64::MAX - self.seq) >= (q.priority.rank(), u64::MAX - q.seq)
    }
}

/// The transmission in progress on a port.
struct CurTx {
    /// Engine id of the outgoing frame.
    frame: FrameId,
    /// Its service priority (preemption compares against this).
    priority: Priority,
    /// The incoming frame it is cut through from, if any.
    in_frame: Option<FrameId>,
    /// When its last bit clocks out.
    end: SimTime,
    /// Whether its completion is armed (a frame waited behind it).
    armed: bool,
}

/// What the scheduler tells its hooks when a frame starts transmitting.
pub struct StartedTx {
    /// Frame length on the wire, bytes.
    pub len: usize,
    /// Transmit start instant.
    pub start: SimTime,
    /// The queued packet's rate-limit classification key.
    pub next_seg_port: Option<u8>,
}

/// Router-specific policy the scheduler calls out to. All methods have
/// no-op defaults; `()` is the hook set for routers with no policy.
pub trait ServiceHooks {
    /// When this queued frame may start, at earliest. The default is the
    /// frame's own cut-through constraint; VIPER additionally applies
    /// installed rate limits.
    fn release_time(&self, _port: u8, q: &Queued) -> SimTime {
        q.earliest
    }

    /// A frame started transmitting (charge rate limits, …).
    fn on_started(&mut self, _port: u8, _tx: &StartedTx) {}
}

impl ServiceHooks for () {}

/// One output port: a bounded queue, the current transmission, and the
/// armed service timer. The single busy/done/preempt state machine all
/// node types drive.
pub struct OutputPort {
    port: u8,
    discipline: Discipline,
    capacity: usize,
    queue: VecDeque<Queued>,
    /// The transmission last started, until it is seen to finish — which
    /// may be after it did (see [`OutputPort::refresh`]).
    current: Option<CurTx>,
    /// Earliest armed service-timer instant (stale timers are harmless —
    /// the handler just re-runs the eligibility scan).
    service_timer_at: Option<SimTime>,
    next_seq: u64,
}

impl OutputPort {
    /// An empty port scheduler.
    pub fn new(port: u8, discipline: Discipline, capacity: usize) -> OutputPort {
        OutputPort {
            port,
            discipline,
            capacity,
            queue: VecDeque::new(),
            current: None,
            service_timer_at: None,
            next_seq: 1,
        }
    }

    /// Queued frames (not counting the one in transmission).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a transmission is in progress.
    pub fn is_busy(&self, ctx: &Context<'_>) -> bool {
        self.current
            .as_ref()
            .is_some_and(|c| !ctx.tx_finished(self.port, c.frame, c.end))
    }

    /// Forget the current transmission if it has finished. Every reader
    /// of `current` goes through here first: a completion nobody armed
    /// is learned of the next time the port looks.
    fn refresh(&mut self, ctx: &Context<'_>) {
        if !self.is_busy(ctx) {
            self.current = None;
        }
    }

    /// A frame waits behind the transmission in progress: have the
    /// engine announce its end, so the frame starts on time.
    fn arm_if_waiting(&mut self, ctx: &mut Context<'_>) {
        if self.queue.is_empty() {
            return;
        }
        if let Some(cur) = self.current.as_mut().filter(|c| !c.armed) {
            cur.armed = true;
            ctx.arm_completion(self.port, cur.frame);
        }
    }

    /// The waiting frames, front (oldest) first.
    pub fn queued(&self) -> impl Iterator<Item = &Queued> {
        self.queue.iter()
    }

    /// Admit a frame, drop-tail. Returns `false` (after counting a
    /// [`DropReason::QueueFull`] through the shared accounting path)
    /// when the queue is at capacity. On success the enqueue stage and
    /// queue-depth statistics are recorded, the enqueue instant stamped,
    /// and the FIFO sequence assigned. Flight hop events (queue-enter,
    /// tail drop) are recorded when the packet carries a key.
    pub fn push(
        &mut self,
        ctx: &mut Context<'_>,
        mut q: Queued,
        stats: &mut PipelineStats,
    ) -> bool {
        if self.queue.len() >= self.capacity {
            stats.drop(DropReason::QueueFull);
            if let Some(key) = q.flight_key {
                ctx.flight_record(key, HopKind::Drop(DropReason::QueueFull.label()));
            }
            return false;
        }
        q.enqueued_at = ctx.now();
        if let Some(key) = q.flight_key {
            ctx.flight_record(key, HopKind::QueueEnter);
        }
        q.seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(q);
        stats.enter(Stage::Enqueue);
        stats.queue_depth.record(self.queue.len() as f64);
        stats.max_queue = stats.max_queue.max(self.queue.len());
        true
    }

    /// Run the service decision: pick the best eligible frame per the
    /// discipline and start it (possibly preempting), discard
    /// drop-if-blocked frames behind a busy port, or — when nothing is
    /// eligible yet — request a service timer. A `Some(at)` return asks
    /// the owning node to schedule a wake-up at `at` (the request is
    /// deduplicated against the already-armed timer). If frames still
    /// wait behind a transmission, its completion is armed.
    pub fn try_service<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) -> Option<SimTime> {
        self.refresh(ctx);
        let timer = self.service(ctx, hooks, stats);
        self.arm_if_waiting(ctx);
        timer
    }

    fn service<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) -> Option<SimTime> {
        let now = ctx.now();
        // Pick the best eligible frame: highest priority rank, FIFO
        // within rank, eligible (released) now. Under FIFO only the head
        // is considered, so service is O(1) regardless of depth. The
        // scan carries the winner's decision metadata (all `Copy`) out
        // with the index, so nothing is ever re-indexed afterwards.
        let mut best: Option<Best> = None;
        let mut soonest: Option<SimTime> = None;
        match self.discipline {
            Discipline::Fifo => {
                if let Some(q) = self.queue.front() {
                    let rel = hooks.release_time(self.port, q);
                    if rel <= now {
                        best = Some(Best::of(0, q));
                    } else {
                        soonest = Some(rel);
                    }
                }
            }
            Discipline::Priority => {
                for (i, q) in self.queue.iter().enumerate() {
                    let rel = hooks.release_time(self.port, q);
                    if rel <= now {
                        match &best {
                            Some(b) if b.outranks(q) => {}
                            _ => best = Some(Best::of(i, q)),
                        }
                    } else {
                        soonest = Some(soonest.map_or(rel, |s: SimTime| s.min(rel)));
                    }
                }
            }
        }

        match best {
            None => {
                // Nothing eligible; request a service timer for the
                // soonest release (re-arm only if a sooner one appeared).
                if let Some(at) = soonest {
                    let need = match self.service_timer_at {
                        None => true,
                        Some(armed) => at < armed,
                    };
                    if need {
                        self.service_timer_at = Some(at);
                        return Some(at);
                    }
                }
                None
            }
            Some(best) => {
                if let Some(cur) = &self.current {
                    // Busy: consider preemption (§5: priorities 6 and 7).
                    if best.priority.is_preemptive() && cur.priority.rank() < best.rank {
                        if ctx.abort_current_tx(self.port).is_ok() {
                            stats.drop(DropReason::Preempted);
                            self.current = None;
                            if let Some(q) = self.queue.remove(best.idx) {
                                self.start(ctx, q, hooks, stats);
                            }
                        }
                    } else if best.dib {
                        // Drop-if-blocked: the port is busy, discard.
                        if self.queue.remove(best.idx).is_some() {
                            stats.drop(DropReason::DropIfBlocked);
                        }
                    }
                } else if let Some(q) = self.queue.remove(best.idx) {
                    self.start(ctx, q, hooks, stats);
                }
                None
            }
        }
    }

    fn start<H: ServiceHooks>(
        &mut self,
        ctx: &mut Context<'_>,
        queued: Queued,
        hooks: &mut H,
        stats: &mut PipelineStats,
    ) {
        let Queued {
            frame,
            priority,
            next_seg_port,
            record,
            in_frame,
            flight_key,
            enqueued_at,
            ..
        } = queued;
        let len = frame.len();
        if let Some(key) = flight_key {
            ctx.flight_record(key, HopKind::QueueLeave);
        }
        // The frame moves into the engine — no clone, no byte copy.
        let tx = match ctx.transmit(self.port, frame) {
            Ok(tx) => tx,
            Err(sirpent_sim::SimError::LinkDown) => {
                stats.drop(DropReason::LinkDown);
                if let Some(key) = flight_key {
                    ctx.flight_record(key, HopKind::Drop(DropReason::LinkDown.label()));
                }
                return;
            }
            Err(_) => {
                stats.drop(DropReason::NoSuchPort);
                if let Some(key) = flight_key {
                    ctx.flight_record(key, HopKind::Drop(DropReason::NoSuchPort.label()));
                }
                return;
            }
        };
        if let Some(key) = flight_key {
            ctx.flight_record_at(tx.start, key, HopKind::TransmitStart);
        }
        stats
            .queue_wait_ns
            .record((tx.start - enqueued_at).as_nanos());
        stats
            .transmit_latency_ns
            .record((tx.end - tx.start).as_nanos());
        hooks.on_started(
            self.port,
            &StartedTx {
                len,
                start: tx.start,
                next_seg_port,
            },
        );
        stats.enter(Stage::Transmit);
        if let Some(first_bit) = record {
            stats.forwarded += 1;
            stats.forward_delay.record_duration(tx.start - first_bit);
        }
        self.current = Some(CurTx {
            frame: tx.frame,
            priority,
            in_frame,
            end: tx.end,
            armed: false,
        });
    }

    /// The transmission of `frame` ended: its armed `TxDone` arrived, or
    /// the engine killed it (`TxAborted`: link down, chaos layer — the
    /// engine already accounted the loss, so no drop is counted here).
    /// Returns `true` — the port went idle, and the caller should re-run
    /// [`OutputPort::try_service`] — when it is the transmission in
    /// progress; stale or foreign completions return `false`.
    pub fn on_tx_done(&mut self, frame: FrameId) -> bool {
        let hit = self.current.as_ref().is_some_and(|c| c.frame == frame);
        if hit {
            self.current = None;
        }
        hit
    }

    /// Abort the transmission in progress if it is cut through from
    /// `in_frame`, whose upstream sender aborted it. Counts a
    /// [`DropReason::Preempted`] and returns `true` when the abort took;
    /// the caller should re-run [`OutputPort::try_service`].
    pub fn abort_in_frame(
        &mut self,
        ctx: &mut Context<'_>,
        in_frame: FrameId,
        stats: &mut PipelineStats,
    ) -> bool {
        self.refresh(ctx);
        let cut = self
            .current
            .as_ref()
            .is_some_and(|c| c.in_frame == Some(in_frame));
        if cut && ctx.abort_current_tx(self.port).is_ok() {
            self.current = None;
            stats.drop(DropReason::Preempted);
            true
        } else {
            false
        }
    }

    /// Discard every queued frame cut through from `in_frame` (its tail
    /// will never arrive).
    pub fn purge_in_frame(&mut self, in_frame: FrameId) {
        self.queue.retain(|q| q.in_frame != Some(in_frame));
    }

    /// Crash teardown (chaos layer): the node lost its output queues.
    /// Every queued frame is accounted as a [`DropReason::RouterDown`]
    /// drop; the current-transmission slot and service timer are cleared
    /// uncounted (the engine killed and accounted the wire transmission
    /// itself).
    pub fn crash_purge(&mut self, stats: &mut PipelineStats) {
        for _ in 0..self.queue.len() {
            stats.drop(DropReason::RouterDown);
        }
        self.queue.clear();
        self.current = None;
        self.service_timer_at = None;
    }

    /// The armed service timer fired; clear it before re-running the
    /// eligibility scan.
    pub fn clear_service_timer(&mut self) {
        self.service_timer_at = None;
    }
}
