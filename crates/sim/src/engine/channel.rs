//! The channel model: a transmission medium with a fixed data rate and
//! propagation delay, its taps, and the records of what is on the wire.
//!
//! Everything that touches `in_flight` lives here — starting a
//! transmission, a sender's own abort, `TxDone` retirement and the chaos
//! layer's kill — so the wire's FIFO and busy-time bookkeeping is stated
//! once. Whether a lost frame is *charged* is not decided here: that is
//! the [`FrameLedger`](super::ledger::FrameLedger)'s, and a record only
//! carries the [`Fate`] the ledger gave it.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;
use sirpent_wire::buf::FrameBuf;

use super::dispatch::{Core, OutMsg};
use super::ledger::Fate;
use super::{
    AbortInfo, ChannelId, ChannelStats, Event, FaultConfig, Frame, FrameEvent, FrameId, NodeId,
    SimError, TxInfo,
};
use crate::stats::DropReason;
use crate::time::{bytes_in, transmission_time, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct TxRecord {
    sender: NodeId,
    frame: FrameId,
    start: SimTime,
    end: SimTime,
    /// Extra propagation delay drawn by an active jitter window (zero
    /// otherwise); added to every receiver-side instant for this frame.
    extra: SimDuration,
    /// What the ledger already knows about this frame's loss.
    fate: Fate,
}

pub(crate) struct Channel {
    pub(crate) rate_bps: u64,
    pub(crate) prop: SimDuration,
    pub(crate) taps: Vec<(NodeId, u8)>,
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
}

impl Channel {
    /// An idle, tap-less channel. Also the *shell* a shard holds for a
    /// channel another shard owns: same wire parameters (so id-indexed
    /// lookups stay aligned) but no taps, so nothing can transmit into it
    /// and no state ever accrues.
    pub(crate) fn new(rate_bps: u64, prop: SimDuration) -> Channel {
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
    pub(super) fn transmit_from(
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
                    self.ledger.suppress_copy();
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
                v[i] ^= flip(&mut self.rng);
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
                    *b ^= flip(&mut self.rng);
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
        self.rx_scratch = receivers;
        // The record occupies the wire until its last bit whatever became
        // of the copies — the sender really transmitted.
        self.channels[ch_id.0].in_flight.push_back(TxRecord {
            sender,
            frame,
            start,
            end,
            extra,
            fate: Fate::at_transmit(suppressed, n_receivers),
        });

        Ok(TxInfo { frame, start, end })
    }

    pub(super) fn abort_from(&mut self, sender: NodeId, port: u8) -> Result<AbortInfo, SimError> {
        let ch_id = self
            .tx_lookup(sender, port)
            .ok_or(SimError::PortNotAttached)?;
        let now = self.now;
        let ch = &mut self.channels[ch_id.0];
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

    /// Retire the record behind a `TxDone` due at `end`. Returns `false`
    /// when none matches: the transmission was aborted or killed, and its
    /// stale `TxDone` must be swallowed.
    pub(super) fn retire_tx(&mut self, sender: NodeId, port: u8, end: SimTime) -> bool {
        let Some(ch) = self.tx_lookup(sender, port) else {
            return false;
        };
        let in_flight = &mut self.channels[ch.0].in_flight;
        let Some(pos) = in_flight
            .iter()
            .position(|t| t.end == end && t.sender == sender)
        else {
            return false;
        };
        in_flight.remove(pos);
        true
    }

    /// Chaos layer: kill every unfinished transmission on `ch_id` — or,
    /// with `only_from`, only that sender's — for the reason `why`.
    /// Mid-flight frames are aborted toward their receivers (same
    /// ordering contract as sender aborts); queued-but-unstarted frames
    /// are cancelled before their first bit ever appears. Records whose
    /// last bit has already clocked out are left for normal `TxDone`
    /// retirement. The sender of each killed transmission gets
    /// [`Event::TxAborted`]. The ledger decides what is charged.
    pub(super) fn chaos_kill(
        &mut self,
        ch_id: ChannelId,
        why: DropReason,
        only_from: Option<NodeId>,
    ) {
        let now = self.now;
        let ch = &mut self.channels[ch_id.0];
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
            } else if taps.iter().any(|&(n, _)| self.is_remote(n)) {
                // Queued, and a tap lives on another shard: the delivery
                // was already exported — send the tombstone after it. The
                // window algebra guarantees it wins the race: the kill
                // happens inside the current window while the delivery
                // dispatches no earlier than the next one, and the
                // barrier exchange sits in between.
                self.outbox.push(OutMsg::Cancel { frame: rec.frame });
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
