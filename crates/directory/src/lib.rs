//! # sirpent-directory — the routing directory service
//!
//! §3 of the paper merges routing into the internetwork *name* directory:
//! "a query about a service can return routes to the service as well as
//! other attributes of the service", relative to the requesting client,
//! together with the authorizing tokens. This crate provides:
//!
//! * [`name`] — hierarchical character-string names and region math
//!   (`cs.stanford.edu` is both a naming and a routing domain);
//! * [`route`] — route records with per-hop properties (bandwidth,
//!   propagation delay, MTU, cost, security) and client preferences;
//! * [`server`] — the directory itself: registration, multi-route
//!   queries, load/failure reports, token issuance, billing aggregation,
//!   and the region-distance query-latency model;
//! * [`cache`] — the client-side advisory cache with on-use staleness
//!   detection;
//! * [`alternates`] — route protection at grant time: per-hop
//!   link-disjoint detours encoded as Slick-Packets-style alternate
//!   branches over the route's own tail;
//! * [`te`] — the traffic-engineering control plane: a weighted link
//!   map (per-link delay / bandwidth / MTU / cost plus reported load)
//!   with an epoch counter, and a constrained Yen-style k-shortest
//!   route search with congestion detours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The unit tests share the TE suites' topology generator, which names
// this crate the way those suites do.
#[cfg(test)]
extern crate self as sirpent_directory;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub mod alternates;
pub mod cache;
pub mod name;
pub mod route;
pub mod server;
pub mod te;

pub use alternates::{Peer, Topology};
pub use cache::RouteCache;
pub use name::Name;
pub use route::{
    AccessSpec, EthernetHop, HopSpec, Preference, RouteProperties, RouteRecord, Security,
};
pub use server::{Advisory, Directory, QueryResult, TokenIssue};
pub use te::{LinkMetrics, TeQuery, TeRoute, TeTopology};
