//! # sirpent-sim — deterministic discrete-event network simulator
//!
//! The substrate under the Sirpent/VIPER reproduction. The paper's
//! evaluation (§6) reasons about byte-level timing — when a header has
//! arrived versus when a whole packet has arrived — so the engine models
//! **partial frame arrival** explicitly: receivers learn of a frame when
//! its first bit lands and are told when its last bit will, letting
//! cut-through and store-and-forward switches be expressed faithfully and
//! compared on identical topologies.
//!
//! * [`engine`] — nodes, channels (point-to-point links and shared
//!   broadcast segments), preemptive aborts, fault injection, and the
//!   frame-fate ledger.
//! * [`queue`] — the event queues the engine can run on: the calendar
//!   (timing-wheel) queue it uses by default and the binary heap it is
//!   held to.
//! * [`chaos`] — scheduled fault events (link flaps, router crash and
//!   restart, partitions, duplication/jitter/error-burst windows)
//!   applied deterministically by the engine.
//! * [`time`] — nanosecond clock and rate arithmetic.
//! * [`workload`] — the paper's §6.2 packet-size mix and hop-count
//!   locality model; arrival timing is left to each experiment's own
//!   schedule.
//! * [`stats`] — summaries, histograms, time-weighted averages, and the
//!   analytic M/D/1 results §6.1 quotes.
//! * [`shard`] — [`ShardedSimulator`], a serial stand-in kept only for
//!   the benchmark's sharded-engine probe. The engine runs on one
//!   thread; a seed fixes every run byte for byte (DESIGN.md §9.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod queue;
pub mod shard;
pub mod stats;
pub mod time;
pub mod workload;

pub use chaos::{ChaosAction, ChaosError, ChaosEvent, FaultSchedule};
pub use engine::{
    AbortInfo, ChannelId, Context, Event, FaultConfig, Frame, FrameEvent, FrameId, Node, NodeId,
    SimError, Simulator, TxInfo,
};
pub use queue::QueueKind;
pub use shard::ShardedSimulator;
pub use time::{bytes_in, transmission_time, SimDuration, SimTime};

/// SplitMix64 finalizer — a strong bijective mixer. The one way the
/// workspace derives seed-dependent *structure* (flow picks, send
/// times, markers); never a source of run-time randomness.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
