//! # sirpent-router — the VIPER router and the comparison switches
//!
//! The switching elements of the reproduction:
//!
//! * [`viper`] — the Sirpent/VIPER router (§2.1, §5): cut-through or
//!   store-and-forward, priority queues with preemption, token checking,
//!   trailer-based return-hop construction, logical ports, multicast,
//!   MTU truncation, and rate-based congestion control with upstream
//!   backpressure.
//! * [`ip`] — the IP-style store-and-forward datagram router (§1's
//!   "universal internetwork datagram" baseline): longest-prefix routing
//!   tables, TTL, per-hop checksum update, fragmentation.
//! * [`cvc`] — the X.75-style concatenated-virtual-circuit switch (§1's
//!   other baseline): call setup/teardown, per-circuit state, bandwidth
//!   reservation.
//! * [`gateway`] — the Sirpent↔IP gateway (§2.3): the IP internetwork
//!   as one logical hop.
//! * `dataplane` (crate-private) — the shared staged data plane: the
//!   `parse → route → authorize → police → enqueue → transmit` pipeline
//!   context, the one output-port scheduler, and the node shell — held
//!   arrivals and the port set — all four node types use.
//! * [`link`] — link framing shared by all node types, including the
//!   rate-control feedback message and feed-forward hints.
//! * [`logical`] — logical ports: replicated trunks, logical-hop route
//!   splices, multicast port sets (§2.2).
//! * [`multicast`] — tree-structured multicast branch encoding (§2).
//! * [`scripted`] — a deterministic packet gun / sink endpoint for tests
//!   and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cvc;
mod dataplane;
pub mod gateway;
pub mod ip;
pub mod link;
pub mod logical;
pub mod multicast;
pub mod scripted;
pub mod viper;

pub use gateway::{GatewayConfig, IpGateway, IPPROTO_SIRPENT};
pub use link::{LinkFrame, RateControlMsg};
pub use logical::{LogicalTable, PortBinding, TrunkStrategy};
pub use scripted::ScriptedHost;
pub use viper::{
    AuthConfig, CongestionConfig, DropReason, PortConfig, PortKind, RouterStats, SwitchMode,
    ViperConfig, ViperRouter,
};
