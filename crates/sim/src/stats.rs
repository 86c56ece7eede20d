//! Measurement utilities: running summaries, the analytic M/D/1 model,
//! and the workspace-wide observability spine — the unified [`DropReason`] /
//! [`Stage`] taxonomy, array-backed counters, and the [`NodeStats`]
//! scrape contract every data-plane node exposes.

use std::ops::Index;

use crate::time::SimDuration;

/// The stages of the shared staged data plane
/// (`parse → route → authorize → police → enqueue → transmit`).
///
/// Every router advances work items through (a subset of) these stages;
/// [`StageCounters`] counts entries into each one so any node can be
/// asked "how much work reached stage X" uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Link-frame decode and header extraction.
    Parse,
    /// Forwarding decision (segment/port resolution, table lookup).
    Route,
    /// Token / admission checking.
    Authorize,
    /// Rate policing and congestion feedback.
    Police,
    /// Output-queue admission.
    Enqueue,
    /// Frame handed to the wire.
    Transmit,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::Route,
        Stage::Authorize,
        Stage::Police,
        Stage::Enqueue,
        Stage::Transmit,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Route => 1,
            Stage::Authorize => 2,
            Stage::Police => 3,
            Stage::Enqueue => 4,
            Stage::Transmit => 5,
        }
    }
}

/// Why a packet was dropped — one taxonomy shared by every node type
/// (VIPER, IP, CVC), so drop accounting is comparable across routers
/// without downcasting to per-router stat structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Leading segment or link frame failed to parse (structural damage —
    /// Sirpent has no checksum, so this only catches framing breakage).
    ParseError,
    /// The resolved port has no attached channel.
    NoSuchPort,
    /// Output queue full (drop-tail).
    QueueFull,
    /// Drop-if-blocked flag set and the port was busy.
    DropIfBlocked,
    /// Preempted mid-transmission by a priority 6/7 packet.
    Preempted,
    /// Token missing and required.
    TokenMissing,
    /// Token rejected (any reason).
    TokenRejected,
    /// Malformed logical/multicast structure.
    BadStructure,
    /// Recursion limit on splices/trees.
    TooDeep,
    /// Arrived on an unknown port or with an unusable frame.
    BadFrame,
    /// IP header checksum failed (corruption the router pays to notice).
    Checksum,
    /// IP TTL reached zero.
    TtlExpired,
    /// No matching route for the destination.
    NoRoute,
    /// Needs fragmentation but cannot (DF set or unusable MTU).
    CannotFragment,
    /// CVC data arrived for a circuit this switch does not know.
    UnknownCircuit,
    /// The outgoing (or carrying) link was administratively down — the
    /// frame was killed on the wire or refused at transmit time.
    LinkDown,
    /// The receiving router was crashed when the frame arrived, or the
    /// frame was purged from a queue by a crash (chaos layer).
    RouterDown,
    /// Delivery suppressed by an active partition window between the
    /// sender's side and the receiver's side.
    Partitioned,
    /// A length field disagrees with the bytes on the wire — e.g. an IP
    /// `total_len` that wrapped the 16-bit field at build time, or a
    /// datagram truncated/padded in transit. Caught at parse so the
    /// bogus length can never index past a buffer downstream.
    BadLength,
    /// The resolved next hop was unreachable at forwarding time — the
    /// outgoing link or the peer router behind it was down — and the
    /// segment carried no usable alternate branch. Unlike [`LinkDown`]
    /// (killed on the wire) or [`RouterDown`] (purged on arrival), this
    /// is a *route-time* decision: the router saw the failure and had
    /// nowhere to divert.
    ///
    /// [`LinkDown`]: DropReason::LinkDown
    /// [`RouterDown`]: DropReason::RouterDown
    NextHopDown,
}

impl DropReason {
    /// Every reason, in dense-index order.
    pub const ALL: [DropReason; 20] = [
        DropReason::ParseError,
        DropReason::NoSuchPort,
        DropReason::QueueFull,
        DropReason::DropIfBlocked,
        DropReason::Preempted,
        DropReason::TokenMissing,
        DropReason::TokenRejected,
        DropReason::BadStructure,
        DropReason::TooDeep,
        DropReason::BadFrame,
        DropReason::Checksum,
        DropReason::TtlExpired,
        DropReason::NoRoute,
        DropReason::CannotFragment,
        DropReason::UnknownCircuit,
        DropReason::LinkDown,
        DropReason::RouterDown,
        DropReason::Partitioned,
        DropReason::BadLength,
        DropReason::NextHopDown,
    ];

    /// Number of reasons.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            DropReason::ParseError => 0,
            DropReason::NoSuchPort => 1,
            DropReason::QueueFull => 2,
            DropReason::DropIfBlocked => 3,
            DropReason::Preempted => 4,
            DropReason::TokenMissing => 5,
            DropReason::TokenRejected => 6,
            DropReason::BadStructure => 7,
            DropReason::TooDeep => 8,
            DropReason::BadFrame => 9,
            DropReason::Checksum => 10,
            DropReason::TtlExpired => 11,
            DropReason::NoRoute => 12,
            DropReason::CannotFragment => 13,
            DropReason::UnknownCircuit => 14,
            DropReason::LinkDown => 15,
            DropReason::RouterDown => 16,
            DropReason::Partitioned => 17,
            DropReason::BadLength => 18,
            DropReason::NextHopDown => 19,
        }
    }

    /// Stable `snake_case` label, used by the flight recorder's drop
    /// events and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::ParseError => "parse_error",
            DropReason::NoSuchPort => "no_such_port",
            DropReason::QueueFull => "queue_full",
            DropReason::DropIfBlocked => "drop_if_blocked",
            DropReason::Preempted => "preempted",
            DropReason::TokenMissing => "token_missing",
            DropReason::TokenRejected => "token_rejected",
            DropReason::BadStructure => "bad_structure",
            DropReason::TooDeep => "too_deep",
            DropReason::BadFrame => "bad_frame",
            DropReason::Checksum => "checksum",
            DropReason::TtlExpired => "ttl_expired",
            DropReason::NoRoute => "no_route",
            DropReason::CannotFragment => "cannot_fragment",
            DropReason::UnknownCircuit => "unknown_circuit",
            DropReason::LinkDown => "link_down",
            DropReason::RouterDown => "router_down",
            DropReason::Partitioned => "partitioned",
            DropReason::BadLength => "bad_length",
            DropReason::NextHopDown => "next_hop_down",
        }
    }

    /// The pipeline stage at which this drop occurs.
    pub fn stage(self) -> Stage {
        match self {
            DropReason::ParseError
            | DropReason::BadFrame
            | DropReason::Checksum
            | DropReason::BadLength => Stage::Parse,
            DropReason::NoSuchPort
            | DropReason::BadStructure
            | DropReason::TooDeep
            | DropReason::TtlExpired
            | DropReason::NoRoute
            | DropReason::UnknownCircuit
            | DropReason::NextHopDown => Stage::Route,
            DropReason::TokenMissing | DropReason::TokenRejected => Stage::Authorize,
            DropReason::QueueFull | DropReason::DropIfBlocked | DropReason::CannotFragment => {
                Stage::Enqueue
            }
            DropReason::Preempted | DropReason::LinkDown | DropReason::Partitioned => {
                Stage::Transmit
            }
            DropReason::RouterDown => Stage::Parse,
        }
    }
}

/// Dense per-reason drop counters with deterministic iteration order
/// (declaration order of [`DropReason::ALL`], never hash order).
#[derive(Debug, Clone, Default)]
pub struct DropCounters([u64; DropReason::COUNT]);

impl DropCounters {
    /// All zero.
    pub fn new() -> DropCounters {
        DropCounters::default()
    }

    /// Count one drop. Private: [`PipelineStats::drop`] is the only way
    /// in, which is what makes every drop counted exactly once.
    fn record(&mut self, why: DropReason) {
        self.0[why.index()] += 1;
    }

    /// The count for one reason.
    pub fn get(&self, why: DropReason) -> u64 {
        self.0[why.index()]
    }

    /// Sum across reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(reason, count)` pairs in declaration order (including zeros).
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL.iter().map(|&r| (r, self.0[r.index()]))
    }
}

impl Index<DropReason> for DropCounters {
    type Output = u64;

    fn index(&self, why: DropReason) -> &u64 {
        &self.0[why.index()]
    }
}

/// Dense per-stage work counters (entries into each stage).
#[derive(Debug, Clone, Default)]
pub struct StageCounters([u64; Stage::COUNT]);

impl StageCounters {
    /// All zero.
    pub fn new() -> StageCounters {
        StageCounters::default()
    }

    /// Count one entry into a stage ([`PipelineStats::enter`] only).
    fn record(&mut self, s: Stage) {
        self.0[s.index()] += 1;
    }

    /// Entries into one stage.
    pub fn get(&self, s: Stage) -> u64 {
        self.0[s.index()]
    }

    /// `(stage, count)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.iter().map(|&s| (s, self.0[s.index()]))
    }
}

impl Index<Stage> for StageCounters {
    type Output = u64;

    fn index(&self, s: Stage) -> &u64 {
        &self.0[s.index()]
    }
}

/// The shared per-node data-plane counters every router embeds: the
/// uniform part of the stats surface (router-specific extras like token
/// cache hits live in per-router wrappers that `Deref` to this).
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Packets forwarded (copies and fragments count individually).
    pub forwarded: u64,
    /// Packets delivered to the node's own local attachment.
    pub local: u64,
    /// Drops, by unified reason.
    pub drops: DropCounters,
    /// Work entries per pipeline stage.
    pub stages: StageCounters,
    /// Delay from first bit in to first bit out, successfully forwarded
    /// packets (seconds).
    pub forward_delay: Summary,
    /// Output-queue depth sampled at each successful enqueue.
    pub queue_depth: Summary,
    /// Peak output-queue depth observed.
    pub max_queue: usize,
    /// Arrival-to-decision service latency (first bit in → forwarding
    /// decision), nanoseconds.
    pub parse_latency_ns: sirpent_telemetry::Histogram,
    /// Output-queue wait (enqueue → transmit start), nanoseconds.
    pub queue_wait_ns: sirpent_telemetry::Histogram,
    /// Frame transmission time on the output link, nanoseconds.
    pub transmit_latency_ns: sirpent_telemetry::Histogram,
}

impl PipelineStats {
    /// Empty stats.
    pub fn new() -> PipelineStats {
        PipelineStats::default()
    }

    /// Count one drop through the shared accounting path — exactly one
    /// reason counter moves per dropped packet. (Stage entries are
    /// counted separately by [`PipelineStats::enter`]; the stage a reason
    /// belongs to is [`DropReason::stage`].)
    pub fn drop(&mut self, why: DropReason) {
        self.drops.record(why);
    }

    /// Count one work item entering a stage.
    pub fn enter(&mut self, s: Stage) {
        self.stages.record(s);
    }

    /// Total drops across reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.total()
    }

    /// Publish the shared pipeline surface into a scrape registry under
    /// the static names of [`sirpent_telemetry::names`]. The live
    /// occupancy gauge is published by the owning node (it knows its
    /// current `queued_frames()`); everything here is counter/histogram
    /// state the pipeline maintains itself.
    pub fn publish_telemetry(
        &self,
        reg: &mut sirpent_telemetry::Registry,
    ) -> Result<(), sirpent_telemetry::registry::RegistryError> {
        use sirpent_telemetry::names;
        reg.publish_count(names::ROUTER_FORWARDED_TOTAL, self.forwarded)?;
        reg.publish_count(names::ROUTER_LOCAL_DELIVERED_TOTAL, self.local)?;
        reg.publish_count(names::ROUTER_DROPS_TOTAL, self.total_drops())?;
        for (stage, count) in self.stages.iter() {
            reg.publish_count(stage_metric_name(stage), count)?;
        }
        reg.publish_histogram(names::ROUTER_PARSE_LATENCY_NS, &self.parse_latency_ns)?;
        reg.publish_histogram(names::ROUTER_QUEUE_WAIT_NS, &self.queue_wait_ns)?;
        reg.publish_histogram(names::ROUTER_TRANSMIT_LATENCY_NS, &self.transmit_latency_ns)?;
        let mut peak = sirpent_telemetry::Gauge::new();
        peak.set(self.max_queue as i64);
        reg.publish_gauge(names::ROUTER_QUEUE_PEAK, &peak)?;
        Ok(())
    }
}

/// The registry name each stage-occupancy counter is published under.
pub fn stage_metric_name(s: Stage) -> &'static str {
    use sirpent_telemetry::names;
    match s {
        Stage::Parse => names::ROUTER_STAGE_PARSE_TOTAL,
        Stage::Route => names::ROUTER_STAGE_ROUTE_TOTAL,
        Stage::Authorize => names::ROUTER_STAGE_AUTHORIZE_TOTAL,
        Stage::Police => names::ROUTER_STAGE_POLICE_TOTAL,
        Stage::Enqueue => names::ROUTER_STAGE_ENQUEUE_TOTAL,
        Stage::Transmit => names::ROUTER_STAGE_TRANSMIT_TOTAL,
    }
}

/// The uniform scrape contract: any node exposing this can be read by
/// the sim engine, bench binaries, and experiment scripts without
/// downcasting to its concrete stats struct.
pub trait NodeStats {
    /// Packets forwarded.
    fn forwarded(&self) -> u64;
    /// Packets delivered locally.
    fn local(&self) -> u64;
    /// Drop counters by unified reason.
    fn drops(&self) -> &DropCounters;
    /// Work counters per pipeline stage.
    fn stages(&self) -> &StageCounters;
    /// First-bit-in → first-bit-out delay summary (seconds).
    fn forward_delay(&self) -> &Summary;
    /// Queue-depth summary (sampled at enqueue).
    fn queue_depth(&self) -> &Summary;
    /// Peak queue depth.
    fn max_queue(&self) -> usize;

    /// Total drops across reasons.
    fn total_drops(&self) -> u64 {
        self.drops().total()
    }
}

impl NodeStats for PipelineStats {
    fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn local(&self) -> u64 {
        self.local
    }

    fn drops(&self) -> &DropCounters {
        &self.drops
    }

    fn stages(&self) -> &StageCounters {
        &self.stages
    }

    fn forward_delay(&self) -> &Summary {
        &self.forward_delay
    }

    fn queue_depth(&self) -> &Summary {
        &self.queue_depth
    }

    fn max_queue(&self) -> usize {
        self.max_queue
    }
}

/// Running scalar summary: count / mean / min / max / variance (Welford).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Summary {
        Summary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Analytic M/D/1 queueing results used by §6.1 ("M/D/1 modeling of the
/// queue suggests an average queue length of approximately one packet or
/// less … at up to about 70 percent utilization").
pub mod mdl {
    /// Mean number in system (including the one in service) for M/D/1 at
    /// utilization `rho` (Pollaczek–Khinchine).
    pub fn mean_in_system(rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        rho + rho * rho / (2.0 * (1.0 - rho))
    }

    /// Mean *waiting* time in units of the (deterministic) service time.
    pub fn mean_wait_in_service_times(rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        rho / (2.0 * (1.0 - rho))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn mdl_matches_paper_70_percent_claim() {
        // At ρ = 0.7 the mean number in system is ≈ 1.52 and the mean
        // queue (excluding in service) is ≈ 0.82 — "approximately one
        // packet or less, excluding the packet currently being
        // transmitted" (§6.1).
        let rho: f64 = 0.7;
        let in_system = mdl::mean_in_system(rho);
        let queued = in_system - rho;
        assert!(queued < 1.0, "queued={queued}");
        assert!(queued > 0.5);
        // "The average queueing delay is then approximately the
        // transmission time for half an average packet" at moderate load:
        // at ρ = 0.5 the wait is exactly 0.5 service times.
        let w = mdl::mean_wait_in_service_times(0.5);
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn mdl_rejects_unstable_rho() {
        let _ = mdl::mean_in_system(1.0);
    }
}
