//! Deciding ahead: a node makes a decision due at a later instant inside
//! the event it is handling, when nothing can happen to it in between.
//!
//! A cut-through router decides a frame's fate a fixed delay after its
//! first bit. Modelled plainly, that is a timer at the decision instant
//! `d` and a second dispatch per hop. But if no event can reach the node
//! before `d`, nothing the decision reads can change before `d` either,
//! and the node may decide in the frame's own event
//! ([`Context::decide_at`](super::Context::decide_at)). The conditions
//! are [`Core::quiet_until`]'s.
//!
//! Deciding ahead must not move an instant or reorder two events. The
//! clock reads `d` while the decision runs; the timer's `(d, seq)` key is
//! reserved, not queued; and every event the decision schedules is
//! *held* and numbered only when the run reaches that key
//! ([`Core::release_next`]) — the sequence numbers it would have taken had
//! the timer fired there, so a same-nanosecond tie downstream breaks as
//! it always did.

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

use super::dispatch::Core;
use super::{ChannelId, Event, FrameId, NodeId};
use crate::time::SimTime;

/// What the engine knows about one node between its dispatches: the
/// instants of everything queued or held for it, and the static inputs
/// of the quiet test.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeBook {
    /// Every instant queued or held for the node, ascending. Events leave
    /// in `(time, seq)` order, so the earliest leaves from the front in
    /// O(1); a new instant is nearly always at or near the back (a frame
    /// lands a propagation delay after it was sent), so its insert moves
    /// at most the few entries after it.
    queued: VecDeque<u64>,
    /// The shortest propagation delay of any channel the node hears on,
    /// nanoseconds: nothing sent from now on reaches it sooner.
    pub(crate) hear_prop: u64,
    /// How many of the node's transmit channels are shared with another
    /// sender or draw randomness (fault config, chaos windows).
    pub(crate) noisy: u32,
    /// Sequence number of the node's latest dispatch (checked when a
    /// decision made ahead is released).
    pub(crate) last: u64,
}

impl NodeBook {
    /// A node that hears on nothing yet.
    pub(crate) fn new() -> NodeBook {
        NodeBook {
            hear_prop: u64::MAX,
            ..NodeBook::default()
        }
    }

    /// An event for the node was queued (or held) at `t`.
    #[inline]
    pub(crate) fn note(&mut self, t: u64) {
        if self.queued.back().is_none_or(|&last| last <= t) {
            self.queued.push_back(t);
        } else {
            let at = self.queued.partition_point(|&x| x <= t);
            self.queued.insert(at, t);
        }
    }

    /// The node's earliest queued event, at `t`, left the queue.
    #[inline]
    pub(crate) fn unnote(&mut self, t: u64) {
        let front = self.queued.pop_front();
        debug_assert_eq!(front, Some(t), "book out of order");
    }

    /// The earliest instant queued or held for the node, or `u64::MAX`.
    #[inline]
    pub(crate) fn earliest(&self) -> u64 {
        self.queued.front().copied().unwrap_or(u64::MAX)
    }
}

/// What a decision made ahead scheduled, in the order it did.
pub(crate) enum Held {
    /// An event to queue.
    Event {
        time: SimTime,
        target: NodeId,
        event: Event,
    },
    /// The completion of transmission `frame` on channel `ch`, which takes
    /// its sequence number at this point.
    Completion { ch: ChannelId, frame: FrameId },
}

/// A decision made ahead of its instant: the reserved key of the timer
/// it replaced, and what it scheduled.
pub(crate) struct Ahead {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    /// Sequence number of the event the decision ran in.
    pub(crate) after: u64,
    pub(crate) held: Vec<Held>,
}

impl Ahead {
    pub(crate) fn key(&self) -> (u64, u64) {
        (self.at.as_nanos(), self.seq)
    }
}

impl Core {
    /// Whether `me` may make a decision due at `at` now, in the event it
    /// is handling: nothing can reach it, and nothing it reads can
    /// change, before `at`. All of these must hold:
    ///
    /// * no event is queued or held for `me` at or before `at`, and none
    ///   later in the dispatch it is handling;
    /// * every channel `me` is a tap of takes longer than `at − now` to
    ///   cross, so nothing sent from now on lands first;
    /// * no chaos action is due at or before `at`;
    /// * `at` is within the running `run_until` deadline;
    /// * no channel `me` transmits on has another sender, a fault config
    ///   or a chaos window — the decision's transmissions draw no
    ///   randomness and find the wire as they would have at `at`;
    /// * the flight recorder is off (it keeps events in recording order)
    ///   and no decision is already running ahead.
    pub(crate) fn quiet_until(&self, me: NodeId, at: SimTime) -> bool {
        let Some(book) = self.books.get(me.0) else {
            return false;
        };
        let lead = at.as_nanos().saturating_sub(self.now.as_nanos());
        book.earliest() > at.as_nanos()
            && lead < book.hear_prop
            && book.noisy == 0
            && !self.batched
            && self.holding.is_none()
            && self.flight.is_none()
            && self.horizon.is_some_and(|h| at <= h)
            && self.chaos.front().is_none_or(|ev| ev.at > at)
    }

    /// Start deciding ahead for `me` at `at`: reserve the timer's key,
    /// set the clock to `at`, and hold whatever is scheduled. Returns the
    /// clock and dispatch key to restore.
    pub(crate) fn begin_ahead(&mut self, me: NodeId, at: SimTime) -> (SimTime, u64) {
        debug_assert!(
            self.quiet_until(me, at),
            "deciding ahead of a node that is not quiet"
        );
        let seq = self.next_seq();
        let held = self.spare.pop().unwrap_or_default();
        self.holding = Some(Ahead {
            at,
            seq,
            node: me,
            after: self.cur_seq,
            held,
        });
        let saved = (self.now, self.cur_seq);
        self.now = at;
        self.cur_seq = seq;
        saved
    }

    /// Finish deciding ahead: restore the clock and keep the held events
    /// until the run reaches the reserved key.
    pub(crate) fn end_ahead(&mut self, (now, cur_seq): (SimTime, u64)) {
        self.now = now;
        self.cur_seq = cur_seq;
        if let Some(ahead) = self.holding.take() {
            if ahead.held.is_empty() {
                self.spare.push(ahead.held);
            } else {
                // Decisions are mostly made in the order of their
                // instants, so this is nearly always a push at the back.
                let key = ahead.key();
                let at = self.ahead.partition_point(|a| a.key() < key);
                self.ahead.insert(at, ahead);
            }
        }
    }

    /// The key of the earliest decision made ahead, if any is waiting.
    #[inline]
    pub(crate) fn next_ahead(&self) -> Option<(u64, u64)> {
        self.ahead.front().map(Ahead::key)
    }

    /// The run has reached the earliest reserved key: number and queue
    /// what its decision held, in the order it was scheduled.
    pub(crate) fn release_next(&mut self) {
        let Some(mut ahead) = self.ahead.pop_front() else {
            return;
        };
        debug_assert_eq!(
            self.books.get(ahead.node.0).map(|b| b.last),
            Some(ahead.after),
            "an event reached node {:?} between its frame and its decision",
            ahead.node
        );
        self.now = self.now.max(ahead.at);
        self.cur_seq = ahead.seq;
        for held in ahead.held.drain(..) {
            match held {
                Held::Event {
                    time,
                    target,
                    event,
                } => self.enqueue(time, target, event),
                Held::Completion { ch, frame } => {
                    let seq = self.next_seq();
                    // An armed completion's book entry was made when it
                    // was armed.
                    if let Some((end, sender, done)) = self.number_completion(ch, frame, seq) {
                        self.queue_keyed(end, seq, sender, done);
                    }
                }
            }
        }
        self.spare.push(ahead.held);
    }
}
