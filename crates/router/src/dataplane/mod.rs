//! The shared staged data plane.
//!
//! The paper's core claim is that a Sirpent router is a *pipeline*: a
//! constant-time switch decision on the leading segment, a token check,
//! rate policing, then transmit (§2.1, §5). This module makes that
//! pipeline explicit and shared:
//!
//! ```text
//! parse → route → authorize → police → enqueue → transmit
//! ```
//!
//! * [`Work`] is the context a packet carries between stages — the
//!   stripped leading segment plus the arrival timing a later stage
//!   needs. Ownership rule: `Work.seg` borrows the packet's shared
//!   store, so the segment view **must be dropped before the enqueue
//!   boundary** (trailer append and truncation run in place only when
//!   the router owns the store uniquely — PR 1's refcount discipline).
//! * [`output::OutputPort`] is the one output scheduler every node type
//!   drives: priority queues with preemption for VIPER, plain O(1) FIFO
//!   for the IP and CVC baselines, one busy/done
//!   transmit state machine and one drop-tail accounting path for all.
//! * [`shell`] is what each forwarding node keeps around its own
//!   decisions: the held-arrival store ([`Held`]) and the port set
//!   ([`PortSet`]), with the abort, crash and completion rules stated
//!   once.
//!
//! Stage and drop accounting go through
//! [`sirpent_sim::stats::PipelineStats`], the uniform per-node stats
//! surface, so the sim engine and bench binaries scrape any node alike.

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

use sirpent_sim::{FrameId, SimTime};
use sirpent_wire::buf::{PacketBuf, SegmentView};
use sirpent_wire::ethernet;
use sirpent_wire::packet::data_range;

mod linear;
mod output;
mod shell;

pub(crate) use linear::LinearMap;
pub(crate) use output::{Discipline, OutputPort, Queued, ServiceHooks, StartedTx};
pub(crate) use shell::{Held, Port, PortSet};

/// A packet mid-pipeline: the leading segment has been stripped and
/// parsed, the forwarding decision has not yet been made.
///
/// `seg` holds a reference on `packet`'s shared store; stages that
/// mutate the packet in place (trailer append, truncation) must consume
/// the `Work` and drop the view first. No `Work` may cross the enqueue
/// boundary — the output stage receives only `Copy` metadata and the
/// packet buffer itself.
pub struct Work {
    /// The packet with the leading segment already stripped.
    pub packet: PacketBuf,
    /// Parsed view of the stripped leading segment.
    pub seg: SegmentView,
    /// The port this packet arrived on; `None` for locally originated
    /// or re-expanded (multicast-tree) copies.
    pub arrival_port: Option<u8>,
    /// Reversed network header of the arrival network, for the
    /// return-hop trailer entry.
    pub eth_return: Option<ethernet::Repr>,
    /// When the incoming frame's last bit arrives (cut-through may not
    /// finish transmitting before this).
    pub in_tail: SimTime,
    /// When the incoming frame's first bit arrived.
    pub first_bit: SimTime,
    /// Incoming frame identity while the tail is still arriving, for
    /// abort propagation; `None` once decoupled (copies).
    pub in_frame: Option<FrameId>,
    /// Splice/tree recursion depth.
    pub depth: u8,
    /// Flight-recorder packet identity (first 8 LE bytes of the
    /// transport payload); `None` whenever the recorder is off, so the
    /// disabled path extracts nothing.
    pub flight_key: Option<u64>,
}

/// Flight-recorder identity of a Sirpent packet: the first 8
/// little-endian bytes of its transport payload — the simtest marker
/// convention. Works mid-route because the terminating local segment
/// survives every per-hop strip, so [`data_range`] finds the payload at
/// any hop, without allocating. Returns `None` (never panics) for
/// malformed or short packets; callers only invoke this when the
/// recorder is enabled.
pub fn flight_key_of(packet: &PacketBuf) -> Option<u64> {
    let bytes = packet.as_slice();
    let data = data_range(bytes).ok()?;
    let head: [u8; 8] = bytes.get(data)?.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}
