//! # sirpent — a reproduction of Sirpent/VIPER (Cheriton, SIGCOMM 1989)
//!
//! *Sirpent: A High-Performance Internetworking Approach* makes source
//! routing the basis of internetworking: packets carry one VIPER header
//! segment per router hop, routers strip the leading segment with a
//! cut-through switch decision and grow a **return-route trailer**, and
//! everything IP keeps in the network — TTL, checksums, fragmentation,
//! routing tables — moves to the transport layer and a routing directory
//! service.
//!
//! This crate is the top of the workspace:
//!
//! * [`compile`] — turning directory route records + tokens into
//!   wire-ready VIPER segment chains;
//! * [`host`] — the full Sirpent host stack (transport endpoint, route
//!   failover, reply-route handling, backpressure reaction) as a
//!   simulator node;
//! * [`build`] — a builder for assembling internetworks that keeps what
//!   it wires and hands out the directory whose map that is.
//!
//! The sub-crates are re-exported under their natural names:
//! [`wire`], [`sim`], [`token`], [`router`], [`directory`],
//! [`transport`].
//!
//! ## Quickstart
//!
//! ```
//! use sirpent::build::Net;
//! use sirpent::directory::TeQuery;
//! use sirpent::host::{HostPortKind, SirpentHost};
//! use sirpent::router::viper::ViperConfig;
//! use sirpent::sim::{SimDuration, SimTime};
//! use sirpent::wire::vmtp::EntityId;
//!
//! // host A — router — host B over 10 Mb/s point-to-point links.
//! let mut net = Net::new(42);
//! let a = net.host(1, vec![(0, HostPortKind::PointToPoint)]);
//! let b = net.host(2, vec![(0, HostPortKind::PointToPoint)]);
//! let r = net.viper(ViperConfig::basic(1, &[1, 2]));
//! net.p2p(a, 0, r, 1, 10_000_000, SimDuration::from_micros(5));
//! net.p2p(r, 2, b, 0, 10_000_000, SimDuration::from_micros(5));
//!
//! // The directory's map is the network as wired; A asks it the way to B.
//! let mut dir = net.directory();
//! let routes = net.routes(&mut dir, a, b, &TeQuery::default(), 1);
//! let mut sim = net.into_sim();
//!
//! let routes = routes.into_iter().map(|(route, _residual_bps)| route).collect();
//! sim.node_mut::<SirpentHost>(a).install_routes(EntityId(2), routes);
//! sim.node_mut::<SirpentHost>(b).echo = true;
//! sim.node_mut::<SirpentHost>(a)
//!     .queue_request(SimTime::ZERO, EntityId(2), b"ping".to_vec());
//! SirpentHost::start(&mut sim, a);
//! sim.run(100_000);
//!
//! let client = sim.node::<SirpentHost>(a);
//! assert_eq!(client.inbox.len(), 1, "echo response came back");
//! assert_eq!(client.inbox[0].message, b"ping");
//! assert_eq!(client.rtt_samples.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod compile;
pub mod host;

pub use build::Net;
pub use compile::CompiledRoute;
pub use host::{DeliveredMsg, HostEvent, HostPortKind, HostStats, SirpentHost};

pub use sirpent_directory as directory;
pub use sirpent_router as router;
pub use sirpent_sim as sim;
pub use sirpent_telemetry as telemetry;
pub use sirpent_token as token;
pub use sirpent_transport as transport;
pub use sirpent_wire as wire;
