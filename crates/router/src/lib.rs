//! # sirpent-router — the VIPER router and the comparison switches
//!
//! The switching elements of the reproduction:
//!
//! * [`viper`] — the Sirpent/VIPER router (§2.1, §5): cut-through or
//!   store-and-forward, priority queues with preemption, token checking,
//!   trailer-based return-hop construction, logical ports, multicast,
//!   MTU truncation, rate-based congestion control with upstream
//!   backpressure, and tunnel ports that cross an IP cloud as one
//!   logical hop (§2.3).
//! * [`ip`] — the IP-style store-and-forward datagram router (§1's
//!   "universal internetwork datagram" baseline): longest-prefix routing
//!   tables, TTL, per-hop checksum update, fragmentation.
//! * [`cvc`] — the X.75-style concatenated-virtual-circuit switch (§1's
//!   other baseline): call setup/teardown, per-circuit state, bandwidth
//!   reservation.
//! * `dataplane` (crate-private) — the shared staged data plane: the
//!   `parse → route → authorize → police → enqueue → transmit` pipeline
//!   context, the one output-port scheduler, and the node shell — held
//!   arrivals and the port set — all three node types use.
//! * [`link`] — link framing shared by all node types, including the
//!   rate-control feedback message and feed-forward hints.
//! * [`logical`] — logical ports: replicated trunks, logical-hop route
//!   splices, multicast port sets (§2.2), tunnels across an IP cloud
//!   (§2.3).
//! * [`multicast`] — tree-structured multicast branch encoding (§2).
//! * [`scripted`] — a deterministic packet gun / sink endpoint for tests
//!   and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cvc;
mod dataplane;
pub mod ip;
pub mod link;
pub mod logical;
pub mod multicast;
pub mod scripted;
pub mod viper;

pub use link::{LinkFrame, RateControlMsg};
pub use logical::{LogicalTable, PortBinding, TrunkStrategy};
pub use scripted::ScriptedHost;
pub use viper::{
    AuthConfig, CongestionConfig, DropReason, PortConfig, PortKind, RouterStats, SwitchMode,
    ViperConfig, ViperRouter,
};
