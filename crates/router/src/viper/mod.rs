//! The VIPER router — the paper's switching element (§2.1, §5).
//!
//! Per packet, the router runs the shared staged pipeline
//! (`parse → route → authorize → police → enqueue → transmit`,
//! `dataplane`); the stages live in one submodule each:
//!
//! 1. [`parse`](self): receive the first bits of the frame; under
//!    **cut-through** the router acts as soon as the leading header
//!    segment (whose fixed fields arrive first) is in, plus a
//!    sub-microsecond decision delay; under **store-and-forward** (the
//!    IP-style baseline discipline applied to the same wire format) it
//!    waits for the whole frame plus a processing delay;
//! 2. `route`: strip the leading VIPER segment and resolve its port
//!    (identity, replicated trunk, logical-hop splice, multicast set,
//!    broadcast, tree branches, or a tunnel across an IP cloud);
//! 3. `authorize`: check the port token against the token cache
//!    (optimistic / blocking / drop, §2.2);
//! 4. `police`: monitor each output queue and push **rate-control
//!    feedback** upstream along the arrival ports feeding it (§2.2),
//!    with optional feed-forward queue hints accelerating detection;
//! 5. `transmit`: append the **return hop** to the trailer — the
//!    arrival port, the same link token, and the arrival network's
//!    header with source and destination reversed — then hand the frame
//!    to the shared `OutputPort` scheduler: immediate transmit if
//!    idle, else queued by priority, dropped (DIB flag), or — at
//!    priorities 6/7 — **preempting** the transmission in progress.
//!
//! A tunnel port value makes the IP internetwork one logical hop
//! (§2.3): `transmit` wraps the packet in an IP-like datagram to the
//! router at the far side, and `parse` unwraps such a datagram into an
//! arrival on the tunnel's port value, so the return hop names the
//! tunnel and the reply crosses the cloud again.

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

use std::any::Any;
use std::ops::{Deref, DerefMut};

use sirpent_sim::stats::PipelineStats;
use sirpent_sim::{Context, Event, FrameId, Node, SimDuration, SimTime};
use sirpent_token::{AuthPolicy, SealingKey, TokenCache};
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::{ethernet, ipish, VIPER_TRANSMISSION_UNIT};

use crate::dataplane::{Discipline, Held, LinearMap, OutputPort, Port, PortSet, Work};
use crate::link::LinkFrame;
use crate::logical::LogicalTable;

mod authorize;
mod parse;
mod police;
mod route;
mod transmit;

pub use sirpent_sim::stats::DropReason;

/// Switching discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchMode {
    /// Decide and start forwarding while the packet is still arriving
    /// (§2.1). The decision is made once the leading segment has arrived.
    CutThrough,
    /// Receive the whole packet, then process — the conventional
    /// discipline the paper contrasts against.
    StoreAndForward {
        /// Per-packet processing time after full reception.
        process_delay: SimDuration,
    },
}

/// Physical characteristics of one router port.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Port number (1–255; 0 is reserved for local delivery).
    pub port: u8,
    /// Link type on this port.
    pub kind: PortKind,
    /// Maximum frame the attached network carries.
    pub mtu: usize,
}

/// The network type behind a port — determines link framing and the
/// return-hop `portInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortKind {
    /// A point-to-point link: no addressing needed, 2-byte shim.
    PointToPoint,
    /// A shared Ethernet; the router's station address on it.
    Ethernet {
        /// Our MAC on this segment.
        mac: ethernet::Address,
    },
}

/// Token-checking configuration.
pub struct AuthConfig {
    /// This router's sealing key (provisioned from the domain minter).
    pub key: SealingKey,
    /// First-packet policy.
    pub policy: AuthPolicy,
    /// How long a full decrypt+verify takes (the delay a blocked packet
    /// waits; §2.2 "the blocking action allows some time for the token to
    /// be processed").
    pub verify_delay: SimDuration,
    /// Whether packets without any token are refused.
    pub require_token: bool,
}

/// Rate-based congestion-control configuration (§2.2).
#[derive(Debug, Clone, Copy)]
pub struct CongestionConfig {
    /// Master switch.
    pub enabled: bool,
    /// Queue occupancy that triggers upstream backpressure.
    pub queue_high: usize,
    /// Fraction of the output rate granted (divided among feeders) when
    /// congestion is signalled.
    pub decrease_factor: f64,
    /// Floor on the granted rate.
    pub min_rate_bps: u64,
    /// Additive re-increase applied every interval ("progressively push
    /// the authorized rate up, similar to Jacobson's slow start … at the
    /// network layer").
    pub increase_step_bps: u64,
    /// Interval between increases.
    pub increase_interval: SimDuration,
    /// Minimum spacing of backpressure messages per (queue, feeder).
    pub signal_interval: SimDuration,
    /// React to feed-forward hints on arriving packets (ablation knob).
    pub use_feedforward: bool,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            enabled: false,
            queue_high: 8,
            decrease_factor: 0.5,
            min_rate_bps: 100_000,
            increase_step_bps: 1_000_000,
            increase_interval: SimDuration::from_millis(10),
            signal_interval: SimDuration::from_millis(1),
            use_feedforward: false,
        }
    }
}

/// Full router configuration.
pub struct ViperConfig {
    /// Identity used in tokens and rate-control messages.
    pub router_id: u32,
    /// Switching discipline.
    pub mode: SwitchMode,
    /// Switch decision + setup time (§6.1: "can reasonably be
    /// significantly less than a microsecond").
    pub decision_delay: SimDuration,
    /// The physical ports.
    pub ports: Vec<PortConfig>,
    /// Token checking; `None` disables (open network).
    pub auth: Option<AuthConfig>,
    /// Logical / multicast port bindings.
    pub logical: LogicalTable,
    /// Output queue capacity, packets.
    pub queue_capacity: usize,
    /// Congestion control.
    pub congestion: CongestionConfig,
}

impl ViperConfig {
    /// A plain cut-through router with the given point-to-point ports,
    /// 1500-byte MTU, no tokens, no congestion control.
    pub fn basic(router_id: u32, ports: &[u8]) -> ViperConfig {
        ViperConfig {
            router_id,
            mode: SwitchMode::CutThrough,
            decision_delay: SimDuration::from_nanos(500),
            ports: ports
                .iter()
                .map(|&p| PortConfig {
                    port: p,
                    kind: PortKind::PointToPoint,
                    mtu: VIPER_TRANSMISSION_UNIT + 64,
                })
                .collect(),
            auth: None,
            logical: LogicalTable::new(),
            queue_capacity: 64,
            congestion: CongestionConfig::default(),
        }
    }
}

/// In-network failover counters (Slick-Packets alternate branches).
///
/// `diversions` counts packets spliced onto their alternate branch;
/// the two failure counters split the route-time `NextHopDown` drops by
/// cause, so a scrape can tell "no protection encoded" from "protection
/// encoded but the detour was down too".
#[derive(Debug, Default, Clone, Copy)]
pub struct FailoverStats {
    /// Packets diverted onto an alternate branch.
    pub diversions: u64,
    /// Next hop down and the segment carried no alternate.
    pub no_alternate: u64,
    /// Next hop down and the alternate's link or peer was down as well.
    pub alternate_down: u64,
}

/// Counters exposed by the router: the shared staged-pipeline core plus
/// the VIPER-specific extras. `Deref`s to [`PipelineStats`], so
/// `stats.forwarded`, `stats.drops[reason]`, `stats.total_drops()`, …
/// read the shared counters directly.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// The shared per-stage / per-drop-reason pipeline counters.
    pub pipeline: PipelineStats,
    /// Truncations applied for next-hop MTU (§2: marker appended).
    pub truncated: u64,
    /// Token checks that hit the cache.
    pub token_cache_hits: u64,
    /// Token checks that performed the full decrypt.
    pub token_decrypts: u64,
    /// Packets held for blocking verification.
    pub token_blocked: u64,
    /// Backpressure messages sent upstream.
    pub backpressure_sent: u64,
    /// Rate limits currently installed (gauge at last change).
    pub limits_installed: u64,
    /// Modeled full-decrypt cost per token-cache miss, nanoseconds.
    pub token_decrypt_ns: sirpent_telemetry::Histogram,
    /// In-network failover (alternate-branch diversion) counters.
    pub failover: FailoverStats,
    /// Forwarding decisions that could not be made in the frame's own
    /// event (the router was not quiet until the decision instant) and
    /// fell back to a timer.
    pub decisions_deferred: u64,
}

impl Deref for RouterStats {
    type Target = PipelineStats;

    fn deref(&self) -> &PipelineStats {
        &self.pipeline
    }
}

impl DerefMut for RouterStats {
    fn deref_mut(&mut self) -> &mut PipelineStats {
        &mut self.pipeline
    }
}

/// A soft rate-limit installed by upstream backpressure (§2.2's
/// dynamically generated per-flow soft state).
struct FlowLimit {
    out_port: u8,
    next_port: u8,
    allowed_bps: u64,
    next_release: SimTime,
}

/// What the router holds under a timer: an arrival until its decision
/// instant, or a token-blocked packet until its verification is done.
enum Pending {
    Process(Arrival),
    Retry(Work, OutPorts),
}

/// Where a routed packet goes: one port — the common case, which
/// allocates nothing — a fan-out set, or a tunnel's physical port `via`,
/// inside a datagram from `local` to `remote`.
enum OutPorts {
    One(u8),
    Set(Vec<u8>),
    Tunnel {
        via: u8,
        local: ipish::Address,
        remote: ipish::Address,
    },
}

impl OutPorts {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutPorts::One(port) | OutPorts::Tunnel { via: port, .. } => std::slice::from_ref(port),
            OutPorts::Set(ports) => ports,
        }
    }
}

/// Bytes in front of a Sirpent packet on a port of `kind`: the Ethernet
/// header, if any, then the Sirpent link header — or, on a tunnel, the
/// protocol tag and the IP header. The cut-through decision instant and
/// MTU truncation both count them.
fn header_len(kind: &PortKind, tunnel: bool) -> usize {
    let link = match kind {
        PortKind::PointToPoint => 0,
        PortKind::Ethernet { .. } => ethernet::HEADER_LEN,
    };
    link + if tunnel {
        LinkFrame::TAG_LEN + ipish::HEADER_LEN
    } else {
        LinkFrame::SIRPENT_HEADER_LEN
    }
}

/// Raw arrival being held until its decision instant.
struct Arrival {
    packet: PacketBuf,
    arrival_port: u8,
    eth_return: Option<ethernet::Repr>,
    in_tail: SimTime,
    first_bit: SimTime,
    in_frame: FrameId,
    /// Flight-recorder identity, extracted once at parse time; `None`
    /// when the recorder is off.
    flight_key: Option<u64>,
}

const KEY_INCREASE_TICK: u64 = 0;
const MAX_DEPTH: u8 = 8;

/// The router node.
pub struct ViperRouter {
    cfg: ViperConfig,
    ports: PortSet<PortConfig>,
    token_cache: Option<TokenCache>,
    limits: Vec<FlowLimit>,
    held: Held<Pending>,
    tick_armed: bool,
    last_signal: LinearMap<(u8, u8), SimTime>,
    /// Identification of the next datagram a tunnel sends.
    ident: u16,
    /// Packets whose final segment addressed this router (port 0).
    pub local_delivered: Vec<(SimTime, PacketBuf)>,
    /// Counters.
    pub stats: RouterStats,
}

impl ViperRouter {
    /// Build a router from its configuration.
    pub fn new(cfg: ViperConfig) -> ViperRouter {
        let ports = cfg
            .ports
            .iter()
            .map(|p| {
                (
                    p.port,
                    Port {
                        cfg: p.clone(),
                        sched: OutputPort::new(p.port, Discipline::Priority, cfg.queue_capacity),
                    },
                )
            })
            .collect();
        let token_cache = cfg
            .auth
            .as_ref()
            .map(|a| TokenCache::new(a.key.clone(), cfg.router_id, a.policy));
        ViperRouter {
            cfg,
            ports,
            token_cache,
            limits: Vec::new(),
            held: Held::new(),
            tick_armed: false,
            last_signal: LinearMap::new(),
            ident: 1,
            local_delivered: Vec::new(),
            stats: RouterStats::default(),
        }
    }

    /// This router's id.
    pub fn router_id(&self) -> u32 {
        self.cfg.router_id
    }

    /// The token cache (if token checking is enabled).
    pub fn token_cache(&self) -> Option<&TokenCache> {
        self.token_cache.as_ref()
    }

    /// Current queue depth on an output port.
    pub fn queue_len(&self, port: u8) -> usize {
        self.ports.get(&port).map(|p| p.sched.len()).unwrap_or(0)
    }

    /// Number of rate limits currently installed.
    pub fn active_limits(&self) -> usize {
        self.limits.len()
    }

    /// Total frames sitting in output queues across all ports (the chaos
    /// harness's in-system conservation term).
    pub fn queued_frames(&self) -> u64 {
        self.ports.queued_frames()
    }
}

impl Node for ViperRouter {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => self.on_frame(ctx, fe),
            Event::TxDone { port, frame } | Event::TxAborted { port, frame } => {
                self.on_tx_end(ctx, port, frame)
            }
            Event::FrameAborted { frame, .. } => self.on_frame_aborted(ctx, frame),
            Event::Timer { key } => {
                if key == KEY_INCREASE_TICK {
                    self.on_increase_tick(ctx);
                } else if let Some(port) = self.ports.service_due(key) {
                    self.service_port(ctx, port);
                } else {
                    match self.held.take(key) {
                        Some(Pending::Process(a)) => self.process(ctx, a),
                        Some(Pending::Retry(work, out_ports)) => self.retry(ctx, work, out_ports),
                        None => {}
                    }
                }
            }
        }
    }

    fn node_stats(&self) -> Option<&dyn sirpent_sim::stats::NodeStats> {
        Some(&self.stats.pipeline)
    }

    fn publish_telemetry(
        &self,
        reg: &mut sirpent_telemetry::Registry,
    ) -> Result<(), sirpent_telemetry::RegistryError> {
        use sirpent_telemetry::names;
        self.ports.publish(&self.stats.pipeline, reg)?;
        reg.publish_count(
            names::FAILOVER_DIVERSIONS_TOTAL,
            self.stats.failover.diversions,
        )?;
        reg.publish_count(
            names::FAILOVER_NO_ALTERNATE_TOTAL,
            self.stats.failover.no_alternate,
        )?;
        reg.publish_count(
            names::FAILOVER_ALTERNATE_DOWN_TOTAL,
            self.stats.failover.alternate_down,
        )?;
        reg.publish_count(
            names::ROUTER_DECISIONS_DEFERRED_TOTAL,
            self.stats.decisions_deferred,
        )?;
        if self.token_cache.is_some() {
            reg.publish_count(names::TOKEN_CACHE_HITS_TOTAL, self.stats.token_cache_hits)?;
            // Every full decrypt is a cache miss (the fast path never
            // decrypts), so the decrypt counter *is* the miss counter.
            reg.publish_count(names::TOKEN_CACHE_MISSES_TOTAL, self.stats.token_decrypts)?;
            reg.publish_count(
                names::TOKEN_OPTIMISTIC_ADMITS_TOTAL,
                self.token_cache.as_ref().map_or(0, |c| c.optimistic_passes),
            )?;
            reg.publish_histogram(
                names::TOKEN_DECRYPT_LATENCY_NS,
                &self.stats.token_decrypt_ns,
            )?;
        }
        Ok(())
    }

    /// Crash/restart state-loss contract (chaos layer): durable
    /// configuration and already-accumulated counters survive; all soft
    /// state dies — the token cache (entries, accounting), installed
    /// rate limits, held arrivals and retries, congestion bookkeeping,
    /// and the output queues. Every packet lost from a
    /// hold or a queue is accounted as a `RouterDown` drop, so
    /// conservation checks balance across a crash.
    fn on_restart(&mut self) {
        if let Some(tc) = self.token_cache.as_mut() {
            tc.clear();
        }
        self.limits.clear();
        self.held.crash(&mut self.stats.pipeline);
        self.tick_armed = false;
        self.last_signal.clear();
        self.ports.crash(&mut self.stats.pipeline);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
