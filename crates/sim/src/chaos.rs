//! The chaos layer: a deterministic, seeded schedule of timed fault
//! events applied by the engine between node events.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`ChaosEvent`]s. The
//! engine applies each event when simulated time reaches it — **before**
//! any node event at the same instant — so a schedule is reproducible
//! bit-for-bit: chaos consumes no RNG draws, and with no schedule
//! installed the engine's behaviour (including RNG draw order) is
//! untouched.
//!
//! Fault classes:
//!
//! * **Link down / up** — a down channel refuses new transmissions
//!   ([`crate::engine::SimError::LinkDown`]) and kills everything it was
//!   carrying: mid-flight frames are aborted toward their receivers
//!   (the same `FrameAborted`-before-`last_bit` contract as sender
//!   aborts), queued-but-unstarted frames vanish without a first bit,
//!   and each killed transmission is accounted as a
//!   [`DropReason::LinkDown`](crate::stats::DropReason::LinkDown) drop
//!   in the engine's chaos stats plus a
//!   [`Event::TxAborted`](crate::engine::Event::TxAborted) notification
//!   to the sender.
//! * **Router crash / restart** — a crashed node receives nothing:
//!   frames arriving while it is down are
//!   [`DropReason::RouterDown`](crate::stats::DropReason::RouterDown)
//!   drops, its own in-flight transmissions are killed, and timers set
//!   before the crash never fire (soft state dies with the node). On
//!   restart the node's [`Node::on_restart`](crate::engine::Node::on_restart)
//!   hook runs, losing whatever state its contract says a reboot loses.
//! * **Partition windows** — while active, deliveries between the two
//!   sides are suppressed
//!   ([`DropReason::Partitioned`](crate::stats::DropReason::Partitioned));
//!   frames already in flight when the window opens still arrive.
//! * **Duplication windows** — each delivered copy may be delivered
//!   twice on a channel (probabilistic, seeded).
//! * **Jitter windows** — each transmission may see extra propagation
//!   delay (uniform in `0..=max_extra`), reordering frames across a
//!   channel while preserving abort-before-tail ordering per frame.
//! * **Error-burst windows** — a contiguous run of bytes may be
//!   corrupted in a delivered copy, on top of the per-channel
//!   single-byte [`FaultConfig`](crate::engine::FaultConfig) model.

use crate::engine::{ChannelId, NodeId};
use crate::time::{SimDuration, SimTime};

/// One scheduled fault action.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Take a channel down, killing in-flight and queued transmissions.
    LinkDown {
        /// The affected channel.
        ch: ChannelId,
    },
    /// Bring a channel back up.
    LinkUp {
        /// The affected channel.
        ch: ChannelId,
    },
    /// Crash a node: it stops receiving, its transmissions die, its
    /// timers are lost.
    RouterCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// Restart a crashed node, running its
    /// [`Node::on_restart`](crate::engine::Node::on_restart) state-loss
    /// hook.
    RouterRestart {
        /// The restarted node.
        node: NodeId,
    },
    /// Open a partition window: nodes in `side_a` cannot exchange
    /// frames with nodes outside it.
    PartitionStart {
        /// One side of the partition (everything else is the other side).
        side_a: Vec<NodeId>,
    },
    /// Close the partition window.
    PartitionEnd,
    /// Open a duplication window on a channel.
    DuplicateStart {
        /// The affected channel.
        ch: ChannelId,
        /// Probability each delivered copy is delivered twice.
        prob: f64,
    },
    /// Close the duplication window.
    DuplicateEnd {
        /// The affected channel.
        ch: ChannelId,
    },
    /// Open a jitter window on a channel: each transmission gets extra
    /// propagation delay drawn uniformly from `0..=max_extra`.
    JitterStart {
        /// The affected channel.
        ch: ChannelId,
        /// Largest extra propagation delay.
        max_extra: SimDuration,
    },
    /// Close the jitter window.
    JitterEnd {
        /// The affected channel.
        ch: ChannelId,
    },
    /// Open an error-burst window on a channel: delivered copies may
    /// have a contiguous run of up to `max_run` bytes corrupted.
    ErrorBurstStart {
        /// The affected channel.
        ch: ChannelId,
        /// Probability a delivered copy takes a burst.
        prob: f64,
        /// Largest corrupted run, in bytes (>= 1).
        max_run: usize,
    },
    /// Close the error-burst window.
    ErrorBurstEnd {
        /// The affected channel.
        ch: ChannelId,
    },
}

/// A fault action bound to its firing time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// When the action applies (before node events at the same instant).
    pub at: SimTime,
    /// What happens.
    pub action: ChaosAction,
}

/// Why a schedule was rejected at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosError {
    /// A probability was NaN, infinite, or outside `0.0..=1.0`.
    BadProbability,
    /// An error burst's `max_run` was zero.
    BadBurstRun,
}

impl core::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChaosError::BadProbability => {
                write!(f, "chaos probability must be finite and within 0.0..=1.0")
            }
            ChaosError::BadBurstRun => write!(f, "error burst max_run must be at least 1"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// A validated, time-sorted fault schedule, installed on a simulator via
/// [`Simulator::install_schedule`](crate::engine::Simulator::install_schedule).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<ChaosEvent>,
}

impl FaultSchedule {
    /// Build a schedule from events in any order; sorts them by time
    /// (stably, so same-instant events keep their given order) and
    /// rejects invalid probabilities up front.
    pub fn new(mut events: Vec<ChaosEvent>) -> Result<FaultSchedule, ChaosError> {
        for ev in &events {
            match ev.action {
                ChaosAction::DuplicateStart { prob, .. } => check_prob(prob)?,
                ChaosAction::ErrorBurstStart { prob, max_run, .. } => {
                    check_prob(prob)?;
                    if max_run == 0 {
                        return Err(ChaosError::BadBurstRun);
                    }
                }
                _ => {}
            }
        }
        events.sort_by_key(|e| e.at);
        Ok(FaultSchedule { events })
    }

    /// The events, time-sorted.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume into the sorted event list.
    pub fn into_events(self) -> Vec<ChaosEvent> {
        self.events
    }
}

fn check_prob(p: f64) -> Result<(), ChaosError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(ChaosError::BadProbability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_by_time_stably() {
        let s = FaultSchedule::new(vec![
            ChaosEvent {
                at: SimTime(20),
                action: ChaosAction::LinkUp { ch: ChannelId(0) },
            },
            ChaosEvent {
                at: SimTime(10),
                action: ChaosAction::LinkDown { ch: ChannelId(0) },
            },
            ChaosEvent {
                at: SimTime(10),
                action: ChaosAction::PartitionEnd,
            },
        ])
        .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].at, SimTime(10));
        assert!(matches!(s.events()[0].action, ChaosAction::LinkDown { .. }));
        assert!(matches!(s.events()[1].action, ChaosAction::PartitionEnd));
        assert_eq!(s.events()[2].at, SimTime(20));
    }

    #[test]
    fn schedule_rejects_bad_probabilities() {
        for bad in [f64::NAN, -0.1, 1.1, f64::INFINITY] {
            let r = FaultSchedule::new(vec![ChaosEvent {
                at: SimTime::ZERO,
                action: ChaosAction::DuplicateStart {
                    ch: ChannelId(0),
                    prob: bad,
                },
            }]);
            assert_eq!(r, Err(ChaosError::BadProbability), "prob={bad}");
        }
        let r = FaultSchedule::new(vec![ChaosEvent {
            at: SimTime::ZERO,
            action: ChaosAction::ErrorBurstStart {
                ch: ChannelId(0),
                prob: 0.5,
                max_run: 0,
            },
        }]);
        assert_eq!(r, Err(ChaosError::BadBurstRun));
    }
}
