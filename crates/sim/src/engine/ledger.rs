//! The frame-fate ledger: the one place that decides whether a frame the
//! chaos layer lost is charged, and that it is charged exactly once.
//!
//! A transmission can be lost in several ways, and a later stage can
//! meet a frame an earlier one already lost:
//!
//! * its copies are **suppressed at transmit** (partition cut, or the
//!   fault injector's drop, which the channel's own stats count);
//! * its record is **killed** on the wire by a link-down or a sender
//!   crash — mid-flight (receivers were told, the delivery events stay
//!   queued) or still queued (its deliveries must never surface);
//! * its delivery **surfaces at a crashed receiver**.
//!
//! Each transition is a method here, so packet conservation — `injected
//! = delivered + dropped + queued` — depends on this file alone. The
//! ledger also carries the chaos-layer event counters.

use std::collections::BTreeSet;

use sirpent_telemetry::{names, Counter, Registry, RegistryError};

use super::FrameId;
use crate::chaos::ChaosAction;
use crate::stats::{DropReason, PipelineStats};

/// What the ledger already knows about one transmission's loss. Carried
/// by the channel's record of the transmission and handed back at a kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Nothing charged: some copy is (or was) on its way.
    Open,
    /// Every receiver copy was suppressed and accounted at transmit time;
    /// a later kill of the record must not charge it again.
    Settled,
}

impl Fate {
    /// The fate of a transmission `suppressed` of whose `receivers`
    /// copies never left.
    pub(crate) fn at_transmit(suppressed: usize, receivers: usize) -> Fate {
        if receivers > 0 && suppressed == receivers {
            Fate::Settled
        } else {
            Fate::Open
        }
    }
}

/// The chaos-layer event counters, by the name each is published under:
/// every applied action, then one per kind.
const COUNTERS: [&str; 5] = [
    names::CHAOS_EVENTS_TOTAL,
    names::CHAOS_LINK_TRANSITIONS_TOTAL,
    names::CHAOS_ROUTER_TRANSITIONS_TOTAL,
    names::CHAOS_PARTITION_WINDOWS_TOTAL,
    names::CHAOS_WINDOW_UPDATES_TOTAL,
];
const EVENTS: usize = 0;
const LINK: usize = 1;
const ROUTER: usize = 2;
const PARTITION: usize = 3;
const WINDOWS: usize = 4;

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct FrameLedger {
    /// Losses the chaos layer inflicted (LinkDown, RouterDown,
    /// Partitioned), through the shared drop taxonomy.
    stats: PipelineStats,
    /// Frames killed before their first bit: their scheduled deliveries
    /// are swallowed uncharged (the kill was the charge).
    cancelled: BTreeSet<FrameId>,
    /// Frames charged by a mid-flight kill whose delivery events are
    /// still queued; drained as those surface.
    charged: BTreeSet<FrameId>,
    /// Indexed like [`COUNTERS`].
    counters: [Counter; 5],
}

impl FrameLedger {
    /// Everything charged so far.
    pub(crate) fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Transmit: one receiver copy never left because a partition cut
    /// separates it from the sender.
    #[inline]
    pub(crate) fn suppress_copy(&mut self) {
        self.stats.drop(DropReason::Partitioned);
    }

    /// A record of `fate` was killed on the wire for `why`. Charged
    /// unless already settled. Mid-flight, the deliveries already
    /// scheduled stay queued, so the charge is remembered for
    /// [`FrameLedger::admit`]; queued, they are tombstoned instead.
    pub(crate) fn kill(&mut self, frame: FrameId, fate: Fate, why: DropReason, mid_flight: bool) {
        if fate == Fate::Open {
            self.stats.drop(why);
            if mid_flight {
                self.charged.insert(frame);
            }
        }
        if !mid_flight {
            self.cancelled.insert(frame);
        }
    }

    /// A delivery of `frame` surfaces. Returns whether the receiver gets
    /// it: not if the frame was cancelled, and not if the receiver is
    /// down — a `RouterDown` loss unless a mid-flight kill already
    /// charged the frame. The charge tombstone drains either way: the
    /// frame's loss is settled once its delivery surfaces.
    #[inline]
    pub(crate) fn admit(&mut self, frame: FrameId, receiver_down: bool) -> bool {
        if !self.cancelled.is_empty() && self.cancelled.contains(&frame) {
            return false;
        }
        let charged = !self.charged.is_empty() && self.charged.remove(&frame);
        if receiver_down && !charged {
            self.stats.drop(DropReason::RouterDown);
        }
        !receiver_down
    }

    /// Count an applied chaos action.
    pub(crate) fn count(&mut self, action: &ChaosAction) {
        let kind = match action {
            ChaosAction::LinkDown { .. } | ChaosAction::LinkUp { .. } => LINK,
            ChaosAction::RouterCrash { .. } | ChaosAction::RouterRestart { .. } => ROUTER,
            ChaosAction::PartitionStart { .. } | ChaosAction::PartitionEnd => PARTITION,
            ChaosAction::DuplicateStart { .. }
            | ChaosAction::DuplicateEnd { .. }
            | ChaosAction::JitterStart { .. }
            | ChaosAction::JitterEnd { .. }
            | ChaosAction::ErrorBurstStart { .. }
            | ChaosAction::ErrorBurstEnd { .. } => WINDOWS,
        };
        self.counters[kind].inc();
        self.counters[EVENTS].inc();
    }

    /// Publish the chaos counters into `reg`.
    pub(crate) fn publish(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        for (name, counter) in COUNTERS.into_iter().zip(&self.counters) {
            reg.publish_counter(name, counter)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One thing that happens to the single one-copy frame each table row
    /// follows.
    #[derive(Clone, Copy)]
    enum Step {
        /// Its copy is cut by a partition at transmit.
        Suppress,
        /// Its record is killed on the wire (link-down).
        Kill { mid_flight: bool },
        /// A delivery event surfaces, at a receiver that is down or not.
        Surface { down: bool },
    }
    use Step::*;

    /// Every pair of transitions that can meet the same frame: charged
    /// exactly once, under the first loss's reason, and conserved —
    /// `injected (1) = delivered + dropped`, nothing left queued.
    #[test]
    fn every_fate_is_charged_exactly_once() {
        let mid = Kill { mid_flight: true };
        let queued = Kill { mid_flight: false };
        let here = |down| Surface { down };
        let table: &[(&str, &[Step], Option<DropReason>)] = &[
            ("delivered untouched", &[here(false)], None),
            (
                "surfacing at a crashed receiver",
                &[here(true)],
                Some(DropReason::RouterDown),
            ),
            (
                "suppressed at transmit, then swept by a link kill",
                &[Suppress, mid],
                Some(DropReason::Partitioned),
            ),
            (
                "killed mid-flight, then surfacing at a crashed receiver",
                &[mid, here(true)],
                Some(DropReason::LinkDown),
            ),
            (
                "queued-cancelled, then its delivery surfacing",
                &[queued, here(false)],
                Some(DropReason::LinkDown),
            ),
            (
                "queued-cancelled, surfacing at a crashed receiver",
                &[queued, here(true)],
                Some(DropReason::LinkDown),
            ),
        ];
        let frame = FrameId(7);
        for &(name, steps, charged) in table {
            let mut home = FrameLedger::default();
            let (mut suppressed, mut delivered) = (0, 0u64);
            for &step in steps {
                match step {
                    Suppress => {
                        home.suppress_copy();
                        suppressed += 1;
                    }
                    Kill { mid_flight } => {
                        let fate = Fate::at_transmit(suppressed, 1);
                        home.kill(frame, fate, DropReason::LinkDown, mid_flight);
                    }
                    Surface { down } => delivered += u64::from(home.admit(frame, down)),
                }
            }
            let dropped = home.stats().total_drops();
            assert_eq!(dropped, u64::from(charged.is_some()), "{name}: charges");
            if let Some(why) = charged {
                assert_eq!(home.stats().drops[why], 1, "{name}: reason");
            }
            assert_eq!(delivered + dropped, 1, "{name}: conservation");
            assert!(home.charged.is_empty(), "{name}: charge tombstone drained");
        }
    }
}
