//! The channel model: a transmission medium with a fixed data rate and
//! propagation delay, its taps, and the records of what is on the wire.
//!
//! Everything that touches `in_flight` lives here — starting a
//! transmission, a sender's own abort, completions and the chaos
//! layer's kill — so the wire's FIFO and busy-time bookkeeping is stated
//! once. Whether a lost frame is *charged* is not decided here: that is
//! the [`FrameLedger`](super::ledger::FrameLedger)'s, and a record only
//! carries the [`Fate`] the ledger gave it.
//!
//! ## Completions
//!
//! A transmission's completion has a key, `(end, seq)`, taken from the
//! scheduling sequence when the transmission starts — whether or not
//! anyone wants to hear of it. Nothing is queued under the key unless
//! the sender *arms* the completion ([`Core::arm`]); then a `TxDone` is.
//! A completion has *passed* once the dispatch key `(now, cur_seq)` is at
//! or beyond its key — exactly when its `TxDone`, armed, would have been
//! delivered — and [`Core::tx_finished`] answers by that rule. A passed
//! record is retired the next time its channel is touched.

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
use rand::Rng;
use sirpent_wire::buf::FrameBuf;

use super::dispatch::Core;
use super::ledger::Fate;
use super::quiet::Held;
use super::{
    AbortInfo, ChannelId, ChannelStats, Event, FaultConfig, Frame, FrameEvent, FrameId, NodeId,
    SimError, TxInfo,
};
use crate::stats::DropReason;
use crate::time::{bytes_in, transmission_time, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct TxRecord {
    sender: NodeId,
    /// The sender's port (a `TxDone` names it).
    port: u8,
    frame: FrameId,
    start: SimTime,
    end: SimTime,
    /// Extra propagation delay drawn by an active jitter window (zero
    /// otherwise); added to every receiver-side instant for this frame.
    extra: SimDuration,
    /// What the ledger already knows about this frame's loss.
    fate: Fate,
    /// The sequence half of the completion's key `(end, seq)`; 0 while
    /// the decision that started the transmission is held (sequence
    /// numbers start at 1).
    done: u64,
    /// Whether the sender armed the completion: a `TxDone` is (or, once
    /// numbered, will be) queued under its key.
    armed: bool,
}

impl TxRecord {
    /// Whether the completion's key is at or before `(now, cur)`.
    #[inline]
    fn passed(&self, now: SimTime, cur: u64) -> bool {
        self.done != 0 && (self.end, self.done) <= (now, cur)
    }
}

pub(crate) struct Channel {
    pub(crate) rate_bps: u64,
    pub(crate) prop: SimDuration,
    pub(crate) taps: Vec<(NodeId, u8)>,
    /// The taps that transmit into the channel.
    pub(crate) senders: Vec<NodeId>,
    pub(super) free_at: SimTime,
    in_flight: VecDeque<TxRecord>,
    pub(super) faults: FaultConfig,
    pub(super) stats: ChannelStats,
    /// Administrative link state (chaos layer). Down channels refuse
    /// transmissions.
    pub(super) up: bool,
    /// Active duplication window probability (0 = no window).
    pub(super) dup_prob: f64,
    /// Active jitter window bound (zero = no window).
    pub(super) jitter_max: SimDuration,
    /// Active error-burst window probability (0 = no window).
    pub(super) burst_prob: f64,
    /// Active error-burst window maximum run length, bytes.
    pub(super) burst_run: usize,
    /// Whether the channel has more than one sender or a transmission on
    /// it may draw randomness — either way, no sender may decide ahead.
    /// Kept in step with the senders' books by [`Core::set_link`].
    pub(crate) noisy: bool,
}

impl Channel {
    /// An idle, tap-less channel.
    pub(crate) fn new(rate_bps: u64, prop: SimDuration) -> Channel {
        Channel {
            rate_bps,
            prop,
            taps: Vec::new(),
            senders: Vec::new(),
            free_at: SimTime::ZERO,
            in_flight: VecDeque::new(),
            faults: FaultConfig::default(),
            stats: ChannelStats::default(),
            up: true,
            dup_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            burst_prob: 0.0,
            burst_run: 0,
            noisy: false,
        }
    }

    /// See [`Channel::noisy`].
    fn is_noisy(&self) -> bool {
        self.senders.len() > 1
            || self.faults.drop_prob > 0.0
            || self.faults.corrupt_prob > 0.0
            || self.dup_prob > 0.0
            || self.jitter_max > SimDuration::ZERO
            || self.burst_prob > 0.0
    }

    /// Retire the records whose completion passed by `(now, cur)`. The
    /// FIFO is in completion-key order, so they are a prefix.
    fn retire_passed(&mut self, now: SimTime, cur: u64) {
        while self.in_flight.front().is_some_and(|r| r.passed(now, cur)) {
            self.in_flight.pop_front();
        }
    }
}

/// A non-zero XOR mask, so a corrupted byte really changes.
fn flip(rng: &mut StdRng) -> u8 {
    loop {
        let mask: u8 = rng.gen();
        if mask != 0 {
            return mask;
        }
    }
}

impl Core {
    /// Change a channel's link state or chaos windows through `f`, and
    /// keep its senders' books in step with whether it is now noisy.
    pub(super) fn set_link(&mut self, ch: ChannelId, f: impl FnOnce(&mut Channel)) {
        let Some(c) = self.channels.get_mut(ch.0) else {
            return;
        };
        f(c);
        let noisy = c.is_noisy();
        if noisy == c.noisy {
            return;
        }
        c.noisy = noisy;
        for sender in &c.senders {
            if let Some(book) = self.books.get_mut(sender.0) {
                book.noisy = if noisy {
                    book.noisy + 1
                } else {
                    book.noisy.saturating_sub(1)
                };
            }
        }
    }

    /// `node` becomes a tap of `ch`: it hears what others send there.
    pub(super) fn add_tap(&mut self, ch: ChannelId, node: NodeId, port: u8) {
        let Some(c) = self.channels.get_mut(ch.0) else {
            return;
        };
        c.taps.push((node, port));
        if let Some(book) = self.books.get_mut(node.0) {
            book.hear_prop = book.hear_prop.min(c.prop.as_nanos());
        }
    }

    /// `node` becomes a sender on `ch` (it is already a tap).
    pub(super) fn add_sender(&mut self, ch: ChannelId, node: NodeId) {
        let Some(c) = self.channels.get_mut(ch.0) else {
            return;
        };
        c.senders.push(node);
        if c.noisy {
            if let Some(book) = self.books.get_mut(node.0) {
                book.noisy += 1;
            }
        }
        self.set_link(ch, |_| {});
    }

    pub(super) fn transmit_from(
        &mut self,
        sender: NodeId,
        port: u8,
        payload: FrameBuf,
    ) -> Result<TxInfo, SimError> {
        let ch_id = self
            .tx_lookup(sender, port)
            .ok_or(SimError::PortNotAttached)?;
        let (now, cur) = (self.now, self.cur_seq);
        let ch = self
            .channels
            .get_mut(ch_id.0)
            .ok_or(SimError::PortNotAttached)?;
        if !ch.up {
            return Err(SimError::LinkDown);
        }
        ch.retire_passed(now, cur);
        let jitter_max = ch.jitter_max;
        let frame = FrameId(self.frame_seq);
        self.frame_seq += 1;
        // Jitter window: one extra-propagation draw per transmission,
        // shared by every receiver of this frame so per-frame ordering
        // invariants (abort before tail) survive reordering. No draw —
        // and hence no RNG perturbation — outside a window.
        let extra = if jitter_max > SimDuration::ZERO {
            SimDuration(self.rng.gen_range(0..=jitter_max.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        let Some(ch) = self.channels.get_mut(ch_id.0) else {
            self.rx_scratch = receivers;
            return Err(SimError::PortNotAttached);
        };
        let start = ch.free_at.max(now);
        let end = start + transmission_time(payload.len(), ch.rate_bps);
        ch.free_at = end;
        ch.stats.frames += 1;
        ch.stats.bytes += payload.len() as u64;
        ch.stats.busy = ch.stats.busy + (end - start);
        receivers.extend(ch.taps.iter().copied().filter(|&(n, _)| n != sender));
        let (prop, rate, faults) = (ch.prop, ch.rate_bps, ch.faults);

        // The completion's key is taken now, in the order its `TxDone`
        // would be scheduled — queued only if the sender arms it.
        let done = match self.holding.as_mut() {
            Some(ahead) => {
                ahead.held.push(Held::Completion { ch: ch_id, frame });
                0
            }
            None => self.next_seq(),
        };

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
                    self.ledger.suppress_copy();
                    suppressed += 1;
                    continue;
                }
            }
            let (drop_p, corrupt_p) = (faults.drop_prob, faults.corrupt_prob);
            if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
                self.count(ch_id, |s| s.drops += 1);
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
                let at = self.rng.gen_range(0..v.len());
                let mask = flip(&mut self.rng);
                if let Some(b) = v.get_mut(at) {
                    *b ^= mask;
                }
                copy = FrameBuf::from(v);
                corrupted = true;
                self.count(ch_id, |s| s.corrupted += 1);
            }
            // Error-burst window: a contiguous run of bytes takes hits.
            let (burst_p, burst_run) = self
                .channels
                .get(ch_id.0)
                .map_or((0.0, 0), |c| (c.burst_prob, c.burst_run));
            if burst_p > 0.0 && !copy.is_empty() && self.rng.gen_bool(burst_p) {
                let mut v = copy.to_vec();
                let run_max = burst_run.min(v.len()).max(1);
                let run = self.rng.gen_range(1..=run_max);
                let at = self.rng.gen_range(0..=v.len() - run);
                if let Some(hit) = v.get_mut(at..at + run) {
                    for b in hit {
                        *b ^= flip(&mut self.rng);
                    }
                }
                copy = FrameBuf::from(v);
                if !corrupted {
                    corrupted = true;
                    self.count(ch_id, |s| s.corrupted += 1);
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
            let dup_p = self.channels.get(ch_id.0).map_or(0.0, |c| c.dup_prob);
            let dup = dup_p > 0.0 && self.rng.gen_bool(dup_p);
            if dup {
                self.count(ch_id, |s| s.duplicated += 1);
                self.push(start + prop + extra, node, Event::Frame(fe.clone()));
            }
            self.push(start + prop + extra, node, Event::Frame(fe));
        }
        self.rx_scratch = receivers;
        // The record occupies the wire until its last bit whatever became
        // of the copies — the sender really transmitted.
        if let Some(ch) = self.channels.get_mut(ch_id.0) {
            ch.in_flight.push_back(TxRecord {
                sender,
                port,
                frame,
                start,
                end,
                extra,
                fate: Fate::at_transmit(suppressed, n_receivers),
                done,
                armed: false,
            });
        }

        Ok(TxInfo { frame, start, end })
    }

    /// Bump one of a channel's counters.
    #[inline]
    fn count(&mut self, ch: ChannelId, f: impl FnOnce(&mut ChannelStats)) {
        if let Some(c) = self.channels.get_mut(ch.0) {
            f(&mut c.stats);
        }
    }

    pub(super) fn abort_from(&mut self, sender: NodeId, port: u8) -> Result<AbortInfo, SimError> {
        let ch_id = self
            .tx_lookup(sender, port)
            .ok_or(SimError::PortNotAttached)?;
        let (now, cur) = (self.now, self.cur_seq);
        let ch = self
            .channels
            .get_mut(ch_id.0)
            .ok_or(SimError::PortNotAttached)?;
        // A finished transmission is not the one to abort, nor one in
        // the way of it.
        ch.retire_passed(now, cur);
        let Some(front) = ch.in_flight.front().copied() else {
            return Err(SimError::NothingToAbort);
        };
        if front.sender != sender || front.start > now || front.end <= now {
            return Err(SimError::NothingToAbort);
        }
        if ch.in_flight.len() > 1 {
            return Err(SimError::AbortWithQueue);
        }
        ch.in_flight.pop_front();
        ch.free_at = now;
        ch.stats.aborts += 1;
        // Give back the unspent busy time.
        let unspent = front.end - now;
        ch.stats.busy = SimDuration(ch.stats.busy.as_nanos().saturating_sub(unspent.as_nanos()));
        let bytes_sent = bytes_in(now - front.start, ch.rate_bps);
        let prop = ch.prop;
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        receivers.extend(ch.taps.iter().copied().filter(|&(n, _)| n != sender));
        // The abort rides the same (jittered) propagation path as the
        // frame itself, so it still lands strictly before the tail.
        for &(node, rx_port) in receivers.iter() {
            self.push(
                now + prop + front.extra,
                node,
                Event::FrameAborted {
                    port: rx_port,
                    frame: front.frame,
                    bytes_received: bytes_sent,
                },
            );
        }
        self.rx_scratch = receivers;
        Ok(AbortInfo {
            frame: front.frame,
            bytes_sent,
        })
    }

    /// An armed `TxDone` for `frame` is being dispatched: retire its
    /// record (it has just passed). Returns `false` when the record is
    /// gone — the transmission was aborted or killed, and its stale
    /// `TxDone` must be swallowed.
    pub(super) fn retire_tx(&mut self, sender: NodeId, port: u8, frame: FrameId) -> bool {
        let (now, cur) = (self.now, self.cur_seq);
        let Some(ch) = self
            .tx_lookup(sender, port)
            .and_then(|ch| self.channels.get_mut(ch.0))
        else {
            return false;
        };
        let live = ch
            .in_flight
            .iter()
            .any(|r| r.frame == frame && r.sender == sender);
        ch.retire_passed(now, cur);
        live
    }

    /// Whether `sender`'s transmission `frame` on `port`, whose last bit
    /// clocks out at `end`, has completed as of the current dispatch —
    /// whether its `TxDone`, armed, would already have been delivered.
    pub(crate) fn tx_finished(
        &self,
        sender: NodeId,
        port: u8,
        frame: FrameId,
        end: SimTime,
    ) -> bool {
        if end != self.now {
            return end < self.now;
        }
        // A tie on the instant: the sequence halves decide. A record
        // that is gone finished (or was aborted, which its sender knows).
        self.tx_lookup(sender, port)
            .and_then(|ch| self.channels.get(ch.0))
            .and_then(|ch| {
                ch.in_flight
                    .iter()
                    .find(|r| r.frame == frame && r.sender == sender)
            })
            .is_none_or(|r| r.passed(self.now, self.cur_seq))
    }

    /// Ask for the `TxDone` of `sender`'s live transmission `frame` on
    /// `port`: it is queued under the completion's reserved key (or will
    /// be, once a held decision's events are numbered). Arming twice, or
    /// arming a completion that has passed or a transmission that is gone,
    /// does nothing.
    pub(crate) fn arm(&mut self, sender: NodeId, port: u8, frame: FrameId) {
        let (now, cur) = (self.now, self.cur_seq);
        let Some(ch) = self
            .tx_lookup(sender, port)
            .and_then(|ch| self.channels.get_mut(ch.0))
        else {
            return;
        };
        let Some(rec) = ch
            .in_flight
            .iter_mut()
            .find(|r| r.frame == frame && r.sender == sender)
        else {
            return;
        };
        if rec.armed || rec.passed(now, cur) {
            return;
        }
        rec.armed = true;
        let (end, done) = (rec.end, rec.done);
        self.armed.inc();
        self.note(sender, end);
        if done != 0 {
            self.queue_keyed(end, done, sender, Event::TxDone { port, frame });
        }
    }

    /// Give the completion of `frame` on `ch` the sequence number `seq`
    /// (a held decision's release). Returns
    /// the `TxDone` to queue under the key — instant, sender, event — if
    /// the completion is armed.
    pub(super) fn number_completion(
        &mut self,
        ch: ChannelId,
        frame: FrameId,
        seq: u64,
    ) -> Option<(SimTime, NodeId, Event)> {
        let rec = self
            .channels
            .get_mut(ch.0)?
            .in_flight
            .iter_mut()
            .find(|r| r.frame == frame)?;
        rec.done = seq;
        let port = rec.port;
        rec.armed
            .then_some((rec.end, rec.sender, Event::TxDone { port, frame }))
    }

    /// Chaos layer: kill every unfinished transmission on `ch_id` — or,
    /// with `only_from`, only that sender's — for the reason `why`.
    /// Mid-flight frames are aborted toward their receivers (same
    /// ordering contract as sender aborts); queued-but-unstarted frames
    /// are cancelled before their first bit ever appears. Records whose
    /// last bit has already clocked out are left to complete. The sender
    /// of each killed transmission gets [`Event::TxAborted`]. The ledger
    /// decides what is charged.
    pub(super) fn chaos_kill(
        &mut self,
        ch_id: ChannelId,
        why: DropReason,
        only_from: Option<NodeId>,
    ) {
        let now = self.now;
        let Some(ch) = self.channels.get_mut(ch_id.0) else {
            return;
        };
        let mut killed = Vec::new();
        ch.in_flight.retain(|rec| {
            let dies = rec.end > now && only_from.is_none_or(|n| n == rec.sender);
            if dies {
                killed.push(*rec);
            }
            !dies
        });
        if killed.is_empty() {
            return;
        }
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
        let (prop, rate, taps) = (ch.prop, ch.rate_bps, ch.taps.clone());
        for rec in killed {
            let mid_flight = rec.start <= now;
            self.ledger.kill(rec.frame, rec.fate, why, mid_flight);
            if mid_flight {
                // Receivers have (or will have) seen the first bit —
                // retract it ahead of the phantom tail. The delivery
                // events already scheduled stay queued.
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
