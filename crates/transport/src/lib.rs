//! # sirpent-transport — the VMTP-like transport layer
//!
//! Sirpent evicts TTL, checksums and fragmentation from the internetwork
//! layer; §4 of the paper assigns those jobs to the transport, "by the
//! end-to-end argument". This crate implements them:
//!
//! * [`clock`] — per-host skewed clocks and the loose synchronization
//!   §4.2 assumes;
//! * [`lifetime`] — maximum-packet-lifetime enforcement from 32-bit
//!   millisecond creation timestamps (wraparound-aware, boot-time
//!   cutoff, the high-order-bits fast path);
//! * [`group`] — packet groups with selective retransmission (§4.3);
//! * [`rate`] — rate-based pacing with backpressure coupling (§2.1);
//! * [`failover`] — multi-route switching on loss / RTT inflation /
//!   backpressure (§6.3);
//! * [`endpoint`] — the endpoint state machine combining all of the
//!   above over the `sirpent-wire` VMTP format, including §4.1
//!   misdelivery detection by 64-bit entity identifiers, and replay
//!   detection whose state retires one packet lifetime after its
//!   transaction's last packet — the lifetime filter refuses any older
//!   copy, so Sirpent's timestamps bound replay state as they bound
//!   packet life.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod endpoint;
pub mod failover;
pub mod group;
pub mod lifetime;
pub mod rate;

pub use clock::{HostClock, SyncService};
pub use endpoint::{Action, Endpoint, EndpointConfig, TransportStats};
pub use failover::{weighted_pick, FailoverPolicy, RouteSet, Verdict};
pub use group::{GroupReceiver, GroupSender};
pub use lifetime::{LifetimeFilter, LifetimeReject};
pub use rate::RatePacer;

/// Timestamp value reserved as "invalid / ignore" (§4.2).
pub const TIMESTAMP_INVALID: u32 = sirpent_wire::vmtp::TIMESTAMP_INVALID;
