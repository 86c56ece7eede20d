//! Dispatch: the event queue, the [`Core`] that owns it, the chaos
//! schedule's application, and the run loops.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sirpent_telemetry::{Counter, FlightRecorder};

use super::channel::Channel;
use super::ledger::FrameLedger;
use super::quiet::{Ahead, Held, NodeBook};
use super::{ChannelId, Context, Event, NodeId, Simulator};
use crate::chaos::{ChaosAction, ChaosEvent};
use crate::queue::{CalendarQueue, EventQueue, HeapQueue, Keyed, QueueKind};
use crate::stats::DropReason;
use crate::time::{SimDuration, SimTime};

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
    fn push(&mut self, item: Scheduled) {
        match self {
            EngineQueue::Heap(q) => q.push(item),
            EngineQueue::Wheel(q) => q.push(item),
        }
    }

    #[inline]
    fn min_key(&mut self) -> Option<(u64, u64)> {
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
    fn pop(&mut self) -> Option<Scheduled> {
        match self {
            EngineQueue::Heap(q) => q.pop(),
            EngineQueue::Wheel(q) => q.pop(),
        }
    }
}

/// Everything in the simulator except the node objects themselves — this
/// split lets a node borrow the core mutably (through [`Context`]) while
/// it is itself borrowed for dispatch.
pub(crate) struct Core {
    pub(crate) now: SimTime,
    /// Sequence number of the event being dispatched: with `now`, the key
    /// a transmission's completion is compared against.
    pub(crate) cur_seq: u64,
    /// Scheduling sequence: strictly monotone for the whole run. Chaos
    /// restarts and purges never rewind it — `node_epoch` fences stale
    /// timers by remembering the sequence watermark instead — so a
    /// `(time, seq)` key is never reused and tie-breaks stay
    /// deterministic across crash/restart cycles. Starts at 1, so a fresh
    /// core's `cur_seq` of 0 precedes every key it hands out.
    seq: u64,
    pub(crate) frame_seq: u64,
    queue: EngineQueue,
    pub(crate) channels: Vec<Channel>,
    /// Transmit attachment per node: `(port, channel)` pairs, linear
    /// scanned (nodes have a handful of ports; beats hashing on the
    /// per-event path).
    pub(crate) tx_map: Vec<Vec<(u8, ChannelId)>>,
    /// Reusable receiver scratch for `transmit_from`/`abort_from` — the
    /// per-transmission fan-out list without a per-call allocation.
    pub(super) rx_scratch: Vec<(NodeId, u8)>,
    pub(crate) rng: StdRng,
    pub(crate) events_dispatched: u64,
    /// Remaining chaos events, time-sorted (front = next).
    pub(crate) chaos: VecDeque<ChaosEvent>,
    /// Which chaos-lost frames are charged, and the chaos counters.
    pub(crate) ledger: FrameLedger,
    /// Per-node crashed flag (indexed by `NodeId`).
    pub(crate) down: Vec<bool>,
    /// Per-node restart epoch: timers scheduled before this sequence
    /// number are stale soft state from before the last crash and are
    /// swallowed.
    node_epoch: Vec<u64>,
    /// Per-node index of queued instants and quiet-test inputs (indexed
    /// by `NodeId`).
    pub(crate) books: Vec<NodeBook>,
    /// Decisions made ahead, waiting for the run to reach their keys,
    /// in key order.
    pub(super) ahead: VecDeque<Ahead>,
    /// The decision being made ahead right now: every push is held in it.
    pub(super) holding: Option<Ahead>,
    /// Emptied held-event lists, for reuse.
    pub(super) spare: Vec<Vec<Held>>,
    /// The latest instant a decision may be made ahead for: the running
    /// `run_until` deadline. `None` outside that loop, so a run stopped
    /// by an event budget never leaves a decision made ahead of its
    /// instant behind.
    pub(super) horizon: Option<SimTime>,
    /// Whether the dispatch in progress is a batch of several events.
    pub(super) batched: bool,
    /// Completions a sender armed.
    pub(crate) armed: Counter,
    /// Active partition window: per-node side flag (`true` = side A).
    pub(super) partition: Option<Vec<bool>>,
    /// The per-packet flight recorder; `None` (the default) records
    /// nothing and leaves every instrumented path byte-identical.
    pub(crate) flight: Option<FlightRecorder>,
}

impl Core {
    /// An empty core at time zero: no nodes, no channels, nothing queued.
    pub(crate) fn new(seed: u64, kind: QueueKind) -> Core {
        Core {
            now: SimTime::ZERO,
            cur_seq: 0,
            seq: 1,
            frame_seq: 0,
            queue: EngineQueue::new(kind),
            channels: Vec::new(),
            tx_map: Vec::new(),
            rx_scratch: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            events_dispatched: 0,
            chaos: VecDeque::new(),
            ledger: FrameLedger::default(),
            down: Vec::new(),
            node_epoch: Vec::new(),
            books: Vec::new(),
            ahead: VecDeque::new(),
            holding: None,
            spare: Vec::new(),
            horizon: None,
            batched: false,
            armed: Counter::new(),
            partition: None,
            flight: None,
        }
    }

    /// Register a node slot.
    pub(super) fn add_node(&mut self) {
        self.down.push(false);
        self.node_epoch.push(0);
        self.books.push(NodeBook::new());
    }

    /// The next scheduling sequence number.
    #[inline]
    pub(super) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        // Sequence-reuse audit: the counter must never wrap within a run
        // (a reused `(time, seq)` key would silently break tie-break
        // determinism — and the calendar queue's drain contract).
        debug_assert!(self.seq != 0, "scheduling sequence wrapped");
        seq
    }

    /// Schedule `event` for `target` at `time`: queued under the next
    /// sequence number or — while a decision is made ahead — held until
    /// the run reaches its key.
    pub(crate) fn push(&mut self, time: SimTime, target: NodeId, event: Event) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        self.note(target, time);
        match self.holding.as_mut() {
            Some(ahead) => ahead.held.push(Held::Event {
                time,
                target,
                event,
            }),
            None => self.enqueue(time, target, event),
        }
    }

    /// Queue an event the target's book already counts, under the next
    /// sequence number.
    pub(super) fn enqueue(&mut self, time: SimTime, target: NodeId, event: Event) {
        let seq = self.next_seq();
        self.queue_keyed(time, seq, target, event);
    }

    /// Queue an event under a key already allocated.
    #[inline]
    pub(super) fn queue_keyed(&mut self, time: SimTime, seq: u64, target: NodeId, event: Event) {
        self.queue.push(Scheduled {
            time,
            seq,
            target,
            event,
        });
    }

    /// Count an event queued or held for `node` in its book.
    #[inline]
    pub(super) fn note(&mut self, node: NodeId, time: SimTime) {
        if let Some(book) = self.books.get_mut(node.0) {
            book.note(time.as_nanos());
        }
    }

    /// The channel `(node, port)` transmits into, if attached.
    #[inline]
    pub(super) fn tx_lookup(&self, node: NodeId, port: u8) -> Option<ChannelId> {
        self.tx_map
            .get(node.0)?
            .iter()
            .find(|&&(p, _)| p == port)
            .map(|&(_, ch)| ch)
    }

    /// Record a transmit attachment. Returns `false` when the pair is
    /// already attached elsewhere.
    pub(super) fn tx_insert(&mut self, node: NodeId, port: u8, ch: ChannelId) -> bool {
        if self.tx_lookup(node, port).is_some() {
            return false;
        }
        if self.tx_map.len() <= node.0 {
            self.tx_map.resize_with(node.0 + 1, Vec::new);
        }
        if let Some(ports) = self.tx_map.get_mut(node.0) {
            ports.push((port, ch));
        }
        true
    }

    /// A timer set before its node's last restart: soft state the crash
    /// destroyed.
    #[inline]
    fn stale_timer(&self, sched: &Scheduled) -> bool {
        matches!(sched.event, Event::Timer { .. })
            && sched.seq < self.node_epoch.get(sched.target.0).copied().unwrap_or(0)
    }
}

/// What the run does next.
enum Next {
    /// Apply the front chaos action.
    Chaos,
    /// Release the earliest decision made ahead.
    Release,
    /// Dispatch the queue's head.
    Dispatch,
}

impl Simulator {
    /// What is due next, and its instant (ns): the one statement of "what
    /// is due next" behind the run loops. A chaos action comes before
    /// node events and reserved keys at its instant; a reserved key and
    /// the queue's head go in key order.
    #[inline]
    fn next(&mut self) -> Option<(u64, Next)> {
        let queue = self.core.queue.min_key();
        let ahead = self.core.next_ahead();
        let (key, next) = match (queue, ahead) {
            (Some(q), Some(a)) if a < q => (Some(a), Next::Release),
            (None, Some(a)) => (Some(a), Next::Release),
            (q, _) => (q, Next::Dispatch),
        };
        let chaos = self.core.chaos.front().map(|ce| ce.at.as_nanos());
        match (chaos, key) {
            (Some(at), k) if k.is_none_or(|k| at <= k.0) => Some((at, Next::Chaos)),
            (_, k) => k.map(|k| (k.0, next)),
        }
    }

    /// Do the next thing if it is due at or before `last` (ns). Returns
    /// `false` when nothing is.
    fn advance(&mut self, last: u64) -> bool {
        match self
            .next()
            .filter(|&(at, _)| at <= last)
            .map(|(_, next)| next)
        {
            None => false,
            Some(Next::Chaos) => {
                if let Some(ce) = self.core.chaos.pop_front() {
                    self.core.now = self.core.now.max(ce.at);
                    self.apply_chaos(ce.action);
                }
                true
            }
            Some(Next::Release) => {
                self.core.release_next();
                true
            }
            Some(Next::Dispatch) => {
                self.dispatch();
                true
            }
        }
    }

    /// Apply one chaos action at the current instant.
    fn apply_chaos(&mut self, action: ChaosAction) {
        self.core.ledger.count(&action);
        let core = &mut self.core;
        let now = core.now;
        match action {
            ChaosAction::LinkDown { ch } => {
                core.set_link(ch, |c| c.up = false);
                core.chaos_kill(ch, DropReason::LinkDown, None);
            }
            ChaosAction::LinkUp { ch } => core.set_link(ch, |c| {
                c.up = true;
                c.free_at = c.free_at.max(now);
            }),
            ChaosAction::RouterCrash { node } => {
                if let Some(d) = core.down.get_mut(node.0) {
                    *d = true;
                }
                // The node's own transmissions die with it, wherever
                // they are on the wire — which can only be a channel it
                // transmits into. Ascending channel order is the order a
                // sweep of every channel kills in.
                let mut own: Vec<ChannelId> = core
                    .tx_map
                    .get(node.0)
                    .map(|ports| ports.iter().map(|&(_, ch)| ch).collect())
                    .unwrap_or_default();
                own.sort_unstable_by_key(|ch| ch.0);
                own.dedup();
                for ch in own {
                    core.chaos_kill(ch, DropReason::RouterDown, Some(node));
                }
            }
            ChaosAction::RouterRestart { node } => {
                if let Some(d) = core.down.get_mut(node.0) {
                    *d = false;
                }
                // Timers set before the crash are stale soft state.
                if let Some(e) = core.node_epoch.get_mut(node.0) {
                    *e = core.seq;
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
                core.partition = Some(sides);
            }
            ChaosAction::PartitionEnd => core.partition = None,
            ChaosAction::DuplicateStart { ch, prob } => core.set_link(ch, |c| c.dup_prob = prob),
            ChaosAction::DuplicateEnd { ch } => core.set_link(ch, |c| c.dup_prob = 0.0),
            ChaosAction::JitterStart { ch, max_extra } => {
                core.set_link(ch, |c| c.jitter_max = max_extra);
            }
            ChaosAction::JitterEnd { ch } => {
                core.set_link(ch, |c| c.jitter_max = SimDuration::ZERO);
            }
            ChaosAction::ErrorBurstStart { ch, prob, max_run } => core.set_link(ch, |c| {
                c.burst_prob = prob;
                c.burst_run = max_run;
            }),
            ChaosAction::ErrorBurstEnd { ch } => core.set_link(ch, |c| c.burst_prob = 0.0),
        }
    }

    /// Filter one popped event against the chaos bookkeeping. A crashed
    /// node receives nothing; beyond that a `TxDone` must still have its
    /// transmission on the wire (and retires it), a frame delivery must
    /// pass the ledger, and a timer must postdate its node's last
    /// restart. Returns `false` when the event is swallowed.
    fn admit(core: &mut Core, sched: &Scheduled) -> bool {
        let down = core.down.get(sched.target.0).copied().unwrap_or(false);
        match &sched.event {
            Event::TxDone { port, frame } => core.retire_tx(sched.target, *port, *frame) && !down,
            Event::Frame(fe) => core.ledger.admit(fe.frame.id, down),
            Event::Timer { .. } => !down && !core.stale_timer(sched),
            Event::FrameAborted { .. } | Event::TxAborted { .. } => !down,
        }
    }

    /// Pop the queue's next event, taking it out of its node's book.
    #[inline]
    fn pop_next(&mut self) -> Option<Scheduled> {
        let sched = self.core.queue.pop()?;
        if let Some(book) = self.core.books.get_mut(sched.target.0) {
            book.unnote(sched.time.as_nanos());
        }
        Some(sched)
    }

    /// Dispatch the next event — along with any same-instant events for
    /// the same node, batched through [`Node::on_events`](super::Node::on_events)
    /// — apply the next due chaos action, or release the events of a
    /// decision made ahead whose reserved key comes first. Returns
    /// `false` when nothing is left to do.
    ///
    /// Batching is dispatch-order preserving: the gathered run is the
    /// events scheduled one right after another (consecutive sequence
    /// numbers) for one node at one instant, so no other key — another
    /// node's event, a reserved decision key, a transmission's
    /// completion — falls between them; every chaos filter is applied
    /// per event, and `events_dispatched` counts each event individually
    /// — so digests and traces are byte-identical to one-at-a-time
    /// dispatch. An armed `TxDone` never joins or extends a batch: its
    /// in-flight retirement (done here, engine-side) must stay exactly
    /// interleaved with any abort decisions the node makes in between.
    /// An unarmed completion is no event at all.
    pub fn step(&mut self) -> bool {
        self.advance(u64::MAX)
    }

    /// Dispatch the queue's head event, with the rest of its batch (see
    /// [`Simulator::step`]).
    fn dispatch(&mut self) {
        let Some(sched) = self.pop_next() else {
            return;
        };
        self.core.now = sched.time;
        self.core.cur_seq = sched.seq;
        if !Self::admit(&mut self.core, &sched) {
            return;
        }
        self.core.events_dispatched += 1;
        let target = sched.target;
        let now = sched.time;
        let solo = matches!(sched.event, Event::TxDone { .. });
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.push(sched.event);
        let (mut popped, mut last) = (sched.seq, sched.seq);
        if !solo {
            // Gather the same-instant run for this node. Chaos cannot
            // fire mid-run (every action due at `now` was applied before
            // the first pop), so the filters in `admit` see the same
            // state each event would have seen dispatched one at a time.
            while let Some(next) = self.core.queue.peek() {
                if next.seq != popped + 1
                    || next.time != now
                    || next.target != target
                    || matches!(next.event, Event::TxDone { .. })
                {
                    break;
                }
                let Some(next) = self.pop_next() else {
                    break;
                };
                popped = next.seq;
                if Self::admit(&mut self.core, &next) {
                    self.core.events_dispatched += 1;
                    last = next.seq;
                    batch.push(next.event);
                }
            }
        }
        if let Some(book) = self.core.books.get_mut(target.0) {
            book.last = last;
        }
        let Some(mut node) = self.nodes.get_mut(target.0).and_then(Option::take) else {
            debug_assert!(false, "event for {target:?}, which is absent or re-entered");
            self.batch = batch;
            return;
        };
        self.core.batched = batch.len() > 1;
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
        if let Some(slot) = self.nodes.get_mut(target.0) {
            *slot = Some(node);
        }
        self.core.batched = false;
        batch.clear();
        self.batch = batch;
    }

    /// Run until the queue drains or `max_events` have been dispatched.
    /// No decision is made ahead of its instant (there is no deadline
    /// for one to stay within).
    pub fn run(&mut self, max_events: u64) {
        let limit = self.core.events_dispatched + max_events;
        while self.core.events_dispatched < limit && self.step() {}
    }

    /// Run until simulated `deadline` (events at exactly `deadline` are
    /// processed; later ones stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.core.horizon = Some(deadline);
        while self.advance(deadline.0) {}
        self.core.horizon = None;
        self.core.now = self.core.now.max(deadline);
    }
}
