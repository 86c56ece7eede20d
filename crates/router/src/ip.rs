//! The IP-style store-and-forward datagram router — the paper's primary
//! baseline (§1).
//!
//! "Each router must (or at least, is supposed to) determine the next hop
//! of the route from the destination address, update the Time To Live
//! (TTL) field, possibly fragment the packet and update the header
//! checksum before sending on the packet. As a consequence of this
//! processing, each packet suffers a reception, storage and processing
//! delay at each router." All four costs are modelled here, on real
//! bytes:
//!
//! * full reception (acts at `last_bit`, never before),
//! * routing-table lookup (longest prefix match),
//! * TTL decrement + checksum update (and verification on arrival),
//! * fragmentation to the next hop's MTU.
//!
//! Unlike the Sirpent router, per-router state grows with the
//! internetwork: the routing table names every reachable prefix (§2.3's
//! scalability contrast).
//!
//! Held arrivals and output ports live in the shared node shell
//! (`dataplane`, DESIGN §6.4), whose `OutputPort` schedulers run in
//! plain FIFO discipline — O(1) service at any queue depth — and report
//! through the unified
//! [`PipelineStats`] / [`DropReason`] surface.

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

use sirpent_sim::stats::{DropReason, PipelineStats, Stage};
use sirpent_sim::{Context, Event, Node, SimDuration, SimTime};
use sirpent_telemetry::HopKind;
use sirpent_wire::ethernet;
use sirpent_wire::ipish::{self, Address, Datagram};

use crate::dataplane::{Discipline, Held, OutputPort, Port, PortSet, Queued};
use crate::link::{decode_port_frame, LinkFrame, PortDecode};
use crate::viper::{PortConfig, PortKind};

/// One forwarding-table entry.
#[derive(Debug, Clone)]
pub struct RouteEntry {
    /// Destination prefix.
    pub prefix: Address,
    /// Prefix length in bits (0–32).
    pub prefix_len: u8,
    /// Output port; 0 delivers locally.
    pub out_port: u8,
    /// Next-hop station when the output port is an Ethernet.
    pub next_hop_mac: Option<ethernet::Address>,
}

/// A rejected [`IpConfig`] — the router refuses to build rather than
/// carry a port that can never frame a minimum fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpConfigError {
    /// The offending port number.
    pub port: u8,
    /// Its configured MTU.
    pub mtu: usize,
    /// The smallest usable MTU for that port's link type: framing
    /// overhead + IP header + the 8-byte minimum fragment payload.
    pub min: usize,
}

impl core::fmt::Display for IpConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "port {} MTU {} below minimum {} (framing + header + 8-byte fragment)",
            self.port, self.mtu, self.min
        )
    }
}

impl std::error::Error for IpConfigError {}

/// Link-framing bytes added on top of an IP datagram for a port kind:
/// the 1-byte frame tag, plus the Ethernet header where applicable.
fn link_overhead(kind: &PortKind) -> usize {
    match kind {
        PortKind::PointToPoint => 1,
        PortKind::Ethernet { .. } => ethernet::HEADER_LEN + 1,
    }
}

/// Router configuration.
pub struct IpConfig {
    /// Per-packet processing time after full reception (lookup + TTL +
    /// checksum work).
    pub process_delay: SimDuration,
    /// Ports.
    pub ports: Vec<PortConfig>,
    /// The forwarding table.
    pub routes: Vec<RouteEntry>,
    /// Output queue capacity (packets), FIFO drop-tail.
    pub queue_capacity: usize,
}

/// Counters: the shared staged-pipeline core plus the IP-specific
/// extras. `Deref`s to [`PipelineStats`], so `stats.forwarded`,
/// `stats.drops[reason]`, `stats.total_drops()`, … read the shared
/// counters directly.
#[derive(Debug, Default)]
pub struct IpStats {
    /// The shared per-stage / per-drop-reason pipeline counters.
    pub pipeline: PipelineStats,
    /// Fragments produced.
    pub fragments_made: u64,
}

impl Deref for IpStats {
    type Target = PipelineStats;

    fn deref(&self) -> &PipelineStats {
        &self.pipeline
    }
}

impl DerefMut for IpStats {
    fn deref_mut(&mut self) -> &mut PipelineStats {
        &mut self.pipeline
    }
}

/// A datagram held until its store-and-forward instant.
struct Arrival {
    datagram: Datagram,
    first_bit: SimTime,
    /// Flight-recorder identity, extracted once at parse time; `None`
    /// when the recorder is off.
    flight_key: Option<u64>,
}

/// Flight-recorder identity of an ipish datagram: the first 8
/// little-endian bytes of its payload (after the fixed header) — the
/// simtest marker convention. Returns `None` (never panics) for short
/// or header-only datagrams.
pub(crate) fn ip_flight_key(datagram: &Datagram) -> Option<u64> {
    let head: [u8; 8] = datagram.payload.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

/// The store-and-forward IP-like router node.
pub struct IpRouter {
    cfg: IpConfig,
    ports: PortSet<PortConfig>,
    held: Held<Arrival>,
    /// Datagrams addressed to this router (matched a local route).
    pub local_delivered: Vec<(SimTime, Datagram)>,
    /// Counters.
    pub stats: IpStats,
}

impl IpRouter {
    /// Build the router. Rejects any port whose MTU cannot carry the
    /// link framing plus a minimum IP fragment (header + 8 payload
    /// bytes) — such a port would hand [`ipish::fragment`] a zero or
    /// sub-minimum budget on every forward, so the misconfiguration is
    /// refused at construction instead of surfacing as per-packet drops.
    pub fn new(cfg: IpConfig) -> Result<IpRouter, IpConfigError> {
        for p in &cfg.ports {
            let min = link_overhead(&p.kind) + ipish::HEADER_LEN + 8;
            if p.mtu < min {
                return Err(IpConfigError {
                    port: p.port,
                    mtu: p.mtu,
                    min,
                });
            }
        }
        let ports = cfg
            .ports
            .iter()
            .map(|p| {
                (
                    p.port,
                    Port {
                        cfg: p.clone(),
                        sched: OutputPort::new(p.port, Discipline::Fifo, cfg.queue_capacity),
                    },
                )
            })
            .collect();
        Ok(IpRouter {
            cfg,
            ports,
            held: Held::new(),
            local_delivered: Vec::new(),
            stats: IpStats::default(),
        })
    }

    /// Longest-prefix match.
    pub fn lookup(&self, dst: Address) -> Option<&RouteEntry> {
        self.cfg
            .routes
            .iter()
            .filter(|r| dst.prefix(r.prefix_len) == r.prefix.prefix(r.prefix_len))
            .max_by_key(|r| r.prefix_len)
    }

    /// Bytes of forwarding state this router holds — the §2.3 scalability
    /// metric (each entry: prefix + len + port + MAC).
    pub fn state_bytes(&self) -> usize {
        self.cfg.routes.len() * (4 + 1 + 1 + 6)
    }

    /// Total frames sitting in output queues across all ports (the chaos
    /// harness's in-system conservation term).
    pub fn queued_frames(&self) -> u64 {
        self.ports.queued_frames()
    }

    /// Count a drop and, when the packet carries a flight key, record
    /// the matching flight-recorder drop event.
    fn drop_keyed(&mut self, ctx: &mut Context<'_>, key: Option<u64>, reason: DropReason) {
        self.stats.drop(reason);
        if let Some(key) = key {
            ctx.flight_record(key, HopKind::Drop(reason.label()));
        }
    }

    fn process(&mut self, ctx: &mut Context<'_>, arrival: Arrival) {
        let Arrival {
            mut datagram,
            first_bit,
            flight_key,
        } = arrival;
        // The decision instant: first-bit arrival → now spans full
        // reception plus the per-packet processing delay.
        self.stats
            .parse_latency_ns
            .record((ctx.now() - first_bit).as_nanos());
        if let Some(key) = flight_key {
            ctx.flight_record(key, HopKind::SwitchDecision);
        }
        // Verify + parse (checksum check is mandatory per-hop work).
        let repr = match ipish::Repr::parse(datagram.header()) {
            Ok(r) => r,
            Err(sirpent_wire::Error::Checksum) => {
                self.drop_keyed(ctx, flight_key, DropReason::Checksum);
                return;
            }
            Err(_) => {
                self.drop_keyed(ctx, flight_key, DropReason::BadFrame);
                return;
            }
        };
        // A total_len that disagrees with the bytes on the wire is a
        // forged length (e.g. a builder whose payload wrapped the
        // 16-bit field) — drop it here so the bogus value can never
        // index a reassembly or fragmentation buffer downstream.
        if repr.total_len as usize != datagram.len() {
            self.drop_keyed(ctx, flight_key, DropReason::BadLength);
            return;
        }
        self.stats.enter(Stage::Route);
        let Some(route) = self.lookup(repr.dst).cloned() else {
            self.drop_keyed(ctx, flight_key, DropReason::NoRoute);
            return;
        };
        if route.out_port == 0 {
            self.stats.local += 1;
            if let Some(key) = flight_key {
                ctx.flight_record(key, HopKind::Delivered);
            }
            self.local_delivered.push((ctx.now(), datagram));
            return;
        }
        // TTL decrement + incremental checksum rewrite, in the header
        // copy this router holds: the payload is never touched.
        match ipish::decrement_ttl(datagram.header_mut()) {
            Ok(true) => {}
            Ok(false) => {
                self.drop_keyed(ctx, flight_key, DropReason::TtlExpired);
                return;
            }
            Err(_) => {
                self.drop_keyed(ctx, flight_key, DropReason::BadFrame);
                return;
            }
        }

        let Some(op) = self.ports.get(&route.out_port) else {
            self.drop_keyed(ctx, flight_key, DropReason::NoRoute);
            return;
        };
        let mtu = op.cfg.mtu;
        let kind = op.cfg.kind.clone();
        // The link framing costs a byte or 14; fragment the IP datagram
        // so the *framed* size fits. `new` guarantees the budget covers
        // at least a minimum fragment. A datagram that fits goes out
        // whole, with the same body.
        let budget = mtu.saturating_sub(link_overhead(&kind));
        let Ok(pieces) = ipish::fragment(datagram, budget) else {
            self.drop_keyed(ctx, flight_key, DropReason::CannotFragment);
            return;
        };
        let now = ctx.now();
        let IpRouter { ports, stats, .. } = self;
        let Some(op) = ports.get_mut(&route.out_port) else {
            stats.drop(DropReason::NoRoute);
            return;
        };
        let mut made = 0;
        for piece in pieces {
            made += 1;
            let frame = match &kind {
                PortKind::PointToPoint => LinkFrame::Ipish(piece).into_p2p_frame(),
                PortKind::Ethernet { mac } => {
                    let dst = route.next_hop_mac.unwrap_or(ethernet::Address::BROADCAST);
                    LinkFrame::Ipish(piece).into_ethernet_frame(*mac, dst)
                }
            };
            // Drop-tail accounting (QueueFull) happens inside push.
            let mut q = Queued::fifo(frame, now, Some(first_bit));
            q.flight_key = flight_key;
            op.sched.push(ctx, q, stats);
        }
        if made > 1 {
            stats.fragments_made += made;
        }
        // FIFO service is O(1): only the head is examined, pop_front
        // never shifts.
        ports.serve(ctx, route.out_port, &mut (), stats);
    }
}

impl Node for IpRouter {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                let Some(op) = self.ports.get(&fe.port) else {
                    self.stats.drop(DropReason::BadFrame);
                    return;
                };
                let datagram = match decode_port_frame(&op.cfg.kind, &fe.frame.payload) {
                    Ok(PortDecode::Frame(LinkFrame::Ipish(d), _)) => d,
                    Ok(PortDecode::NotForUs) => return,
                    _ => {
                        self.stats.drop(DropReason::BadFrame);
                        return;
                    }
                };
                self.stats.enter(Stage::Parse);
                // Flight recorder: extract the packet identity exactly
                // once, and only when recording is on.
                let flight_key = if ctx.flight_enabled() {
                    ip_flight_key(&datagram)
                } else {
                    None
                };
                if let Some(k) = flight_key {
                    ctx.flight_record_at(fe.first_bit, k, HopKind::ArrivalFirstBit);
                }
                // Store-and-forward: act only after the full frame + the
                // per-packet processing delay.
                let arrival = Arrival {
                    datagram,
                    first_bit: fe.first_bit,
                    flight_key,
                };
                let at = fe.last_bit + self.cfg.process_delay;
                self.held.hold(ctx, at, Some(fe.frame.id), arrival);
            }
            Event::TxDone { port, frame } | Event::TxAborted { port, frame } => {
                let stats = &mut self.stats.pipeline;
                self.ports.on_tx_end(ctx, port, frame, &mut (), stats);
            }
            Event::Timer { key } => {
                if let Some(arrival) = self.held.take(key) {
                    self.process(ctx, arrival);
                }
            }
            Event::FrameAborted { frame, .. } => {
                self.held.abort(frame);
                let stats = &mut self.stats.pipeline;
                self.ports.on_frame_aborted(ctx, frame, &mut (), stats);
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
        self.ports.publish(&self.stats.pipeline, reg)
    }

    /// Crash/restart state-loss contract (chaos layer): the forwarding
    /// table is configuration and survives; held datagrams and output
    /// queues are lost, each accounted as a `RouterDown` drop so
    /// conservation checks balance across a crash.
    fn on_restart(&mut self) {
        self.held.crash(&mut self.stats.pipeline);
        self.ports.crash(&mut self.stats.pipeline);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::ScriptedHost;
    use sirpent_sim::Simulator;
    use sirpent_wire::buf::PacketBuf;
    use sirpent_wire::ipish::{Repr, DEFAULT_TTL, HEADER_LEN};

    const MBPS_10: u64 = 10_000_000;

    fn datagram(src: Address, dst: Address, payload: usize, ttl: u8) -> Datagram {
        let repr = Repr {
            tos: 0,
            total_len: ipish::checked_total_len(payload).expect("test payload fits"),
            ident: 7,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl,
            protocol: 17,
            src,
            dst,
        };
        Datagram::new(&repr, PacketBuf::from(vec![0xAB; payload]))
    }

    fn one_router() -> (
        Simulator,
        sirpent_sim::NodeId,
        sirpent_sim::NodeId,
        sirpent_sim::NodeId,
    ) {
        let mut sim = Simulator::new(1);
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let dst = sim.add_node(Box::new(ScriptedHost::new()));
        let r = sim.add_node(Box::new(
            IpRouter::new(IpConfig {
                process_delay: SimDuration::from_micros(50),
                ports: vec![
                    PortConfig {
                        port: 1,
                        kind: PortKind::PointToPoint,
                        mtu: 1500,
                    },
                    PortConfig {
                        port: 2,
                        kind: PortKind::PointToPoint,
                        mtu: 1500,
                    },
                ],
                routes: vec![RouteEntry {
                    prefix: Address::new(10, 0, 2, 0),
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: None,
                }],
                queue_capacity: 32,
            })
            .expect("ip config"),
        ));
        sim.p2p(src, 0, r, 1, MBPS_10, SimDuration::from_micros(1));
        sim.p2p(r, 2, dst, 0, MBPS_10, SimDuration::from_micros(1));
        (sim, src, r, dst)
    }

    #[test]
    fn forwards_after_full_reception_plus_processing() {
        let (mut sim, src, r, dst) = one_router();
        let d = datagram(
            Address::new(10, 0, 1, 1),
            Address::new(10, 0, 2, 2),
            1000,
            DEFAULT_TTL,
        );
        let dlen = d.len();
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);

        let rx = sim.node::<ScriptedHost>(dst).received_p2p();
        assert_eq!(rx.len(), 1);
        let LinkFrame::Ipish(got) = &rx[0].1 else {
            panic!("wrong frame kind")
        };
        let repr = Repr::parse(got.header()).unwrap();
        assert_eq!(repr.ttl, DEFAULT_TTL - 1, "TTL decremented");
        assert_eq!(got.len(), dlen);

        // Store-and-forward: first bit out must be at least
        // last-bit-in + 50 µs. Frame = 1021 bytes at 10 Mb/s = 816.8 µs,
        // + 1 µs prop: last bit in at 817.8 µs, so delivery starts no
        // earlier than 867.8 µs.
        let st = sim.node::<IpRouter>(r);
        assert_eq!(st.stats.forwarded, 1);
        let delay = st.stats.forward_delay.mean();
        assert!(
            delay > 800e-6,
            "store-and-forward delay {delay} must include reception"
        );
    }

    #[test]
    fn ttl_expiry_drops() {
        let (mut sim, src, r, dst) = one_router();
        let d = datagram(Address::new(10, 0, 1, 1), Address::new(10, 0, 2, 2), 10, 1);
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);
        assert!(sim.node::<ScriptedHost>(dst).received.is_empty());
        assert_eq!(
            sim.node::<IpRouter>(r).stats.drops[DropReason::TtlExpired],
            1
        );
    }

    #[test]
    fn corrupt_header_dropped_at_router() {
        let (mut sim, src, r, dst) = one_router();
        let mut d = datagram(Address::new(10, 0, 1, 1), Address::new(10, 0, 2, 2), 10, 9);
        d.header_mut()[16] ^= 0x55; // corrupt destination
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);
        assert!(sim.node::<ScriptedHost>(dst).received.is_empty());
        assert_eq!(sim.node::<IpRouter>(r).stats.drops[DropReason::Checksum], 1);
    }

    #[test]
    fn no_route_drops() {
        let (mut sim, src, r, _dst) = one_router();
        let d = datagram(Address::new(10, 0, 1, 1), Address::new(10, 9, 9, 9), 10, 9);
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);
        assert_eq!(sim.node::<IpRouter>(r).stats.drops[DropReason::NoRoute], 1);
    }

    #[test]
    fn fragments_to_small_mtu() {
        let mut sim = Simulator::new(2);
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let dst = sim.add_node(Box::new(ScriptedHost::new()));
        let r = sim.add_node(Box::new(
            IpRouter::new(IpConfig {
                process_delay: SimDuration::from_micros(50),
                ports: vec![
                    PortConfig {
                        port: 1,
                        kind: PortKind::PointToPoint,
                        mtu: 1500,
                    },
                    PortConfig {
                        port: 2,
                        kind: PortKind::PointToPoint,
                        mtu: 256,
                    },
                ],
                routes: vec![RouteEntry {
                    prefix: Address::new(10, 0, 2, 0),
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: None,
                }],
                queue_capacity: 32,
            })
            .expect("ip config"),
        ));
        sim.p2p(src, 0, r, 1, MBPS_10, SimDuration::ZERO);
        sim.p2p(r, 2, dst, 0, MBPS_10, SimDuration::ZERO);
        let d = datagram(
            Address::new(10, 0, 1, 1),
            Address::new(10, 0, 2, 2),
            1000,
            9,
        );
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);

        let rx = sim.node::<ScriptedHost>(dst).received_p2p();
        assert!(rx.len() > 1, "got {} fragments", rx.len());
        // Reassemble and verify payload integrity end-to-end.
        let mut re = sirpent_wire::ipish::Reassembly::new();
        let mut out = None;
        for (_, f) in &rx {
            let LinkFrame::Ipish(d) = f else { panic!() };
            if let Some(done) = re.push(d).unwrap() {
                out = Some(done);
            }
        }
        let out = out.expect("reassembles");
        assert_eq!(out.len(), HEADER_LEN + 1000);
        assert!(out.payload.iter().all(|&b| b == 0xAB));
        assert_eq!(
            sim.node::<IpRouter>(r).stats.fragments_made,
            rx.len() as u64
        );
    }

    fn router_with_exit_mtu(
        exit_mtu: usize,
    ) -> (
        Simulator,
        sirpent_sim::NodeId,
        sirpent_sim::NodeId,
        sirpent_sim::NodeId,
    ) {
        let mut sim = Simulator::new(3);
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let dst = sim.add_node(Box::new(ScriptedHost::new()));
        let r = sim.add_node(Box::new(
            IpRouter::new(IpConfig {
                process_delay: SimDuration::from_micros(50),
                ports: vec![
                    PortConfig {
                        port: 1,
                        kind: PortKind::PointToPoint,
                        mtu: 1500,
                    },
                    PortConfig {
                        port: 2,
                        kind: PortKind::PointToPoint,
                        mtu: exit_mtu,
                    },
                ],
                routes: vec![RouteEntry {
                    prefix: Address::new(10, 0, 2, 0),
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: None,
                }],
                // Deep enough for a maximum datagram's fragment burst.
                queue_capacity: 64,
            })
            .expect("ip config"),
        ));
        sim.p2p(src, 0, r, 1, MBPS_10, SimDuration::ZERO);
        sim.p2p(r, 2, dst, 0, MBPS_10, SimDuration::ZERO);
        (sim, src, r, dst)
    }

    #[test]
    fn max_total_len_datagram_is_forwarded() {
        // Boundary: payload = 65535 − HEADER_LEN fills total_len exactly
        // and must traverse the router (fragmented to the MTU) intact.
        let (mut sim, src, r, dst) = router_with_exit_mtu(1500);
        let d = datagram(
            Address::new(10, 0, 1, 1),
            Address::new(10, 0, 2, 2),
            ipish::MAX_PAYLOAD,
            DEFAULT_TTL,
        );
        assert_eq!(d.len(), u16::MAX as usize);
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(100_000);

        let rstats = &sim.node::<IpRouter>(r).stats;
        assert_eq!(rstats.drops[DropReason::BadLength], 0);
        assert_eq!(rstats.total_drops(), 0);
        let rx = sim.node::<ScriptedHost>(dst).received_p2p();
        let mut re = sirpent_wire::ipish::Reassembly::new();
        let mut out = None;
        for (_, f) in &rx {
            let LinkFrame::Ipish(d) = f else { panic!() };
            if let Some(done) = re.push(d).unwrap() {
                out = Some(done);
            }
        }
        assert_eq!(out.expect("reassembles").len(), u16::MAX as usize);
    }

    #[test]
    fn wrapped_total_len_is_rejected_and_dropped() {
        // One past the boundary: the checked builder refuses it...
        assert_eq!(
            ipish::checked_total_len(ipish::MAX_PAYLOAD + 1),
            Err(sirpent_wire::Error::DatagramTooLong)
        );
        // ...and a hand-forged datagram whose total_len wrapped to 0 is
        // dropped at the router with an explicit BadLength, not
        // forwarded with a forged tiny length.
        let (mut sim, src, r, dst) = router_with_exit_mtu(1500);
        let payload = ipish::MAX_PAYLOAD + 1;
        let repr = Repr {
            tos: 0,
            total_len: (HEADER_LEN + payload) as u16, // wraps to 0
            ident: 7,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: DEFAULT_TTL,
            protocol: 17,
            src: Address::new(10, 0, 1, 1),
            dst: Address::new(10, 0, 2, 2),
        };
        let d = Datagram::new(&repr, PacketBuf::from(vec![0xAB; payload]));
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(100_000);

        let rstats = &sim.node::<IpRouter>(r).stats;
        assert_eq!(rstats.drops[DropReason::BadLength], 1);
        assert_eq!(rstats.forwarded, 0);
        assert!(sim.node::<ScriptedHost>(dst).received_p2p().is_empty());
    }

    /// A datagram that arrives with a high fragment offset is refused,
    /// not cut into fragments whose 13-bit offsets wrap to near 0.
    #[test]
    fn a_fragment_offset_past_the_field_cannot_fragment() {
        let (mut sim, src, r, dst) = router_with_exit_mtu(601);
        let mut d = datagram(
            Address::new(10, 0, 1, 1),
            Address::new(10, 0, 2, 2),
            1400,
            9,
        );
        let repr = Repr {
            frag_offset: 8150,
            more_frags: true,
            ..Repr::parse(d.header()).unwrap()
        };
        d = Datagram::new(&repr, d.payload);
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Ipish(d).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, src);
        sim.run(10_000);

        let stats = &sim.node::<IpRouter>(r).stats;
        assert_eq!(stats.drops[DropReason::CannotFragment], 1);
        assert_eq!(stats.fragments_made, 0);
        assert!(sim.node::<ScriptedHost>(dst).received.is_empty());
    }

    #[test]
    fn undersized_mtu_rejected_at_construction() {
        let cfg = |mtu| IpConfig {
            process_delay: SimDuration::ZERO,
            ports: vec![PortConfig {
                port: 1,
                kind: PortKind::PointToPoint,
                mtu,
            }],
            routes: vec![],
            queue_capacity: 1,
        };
        // p2p minimum: 1 framing byte + 20 header + 8 fragment payload.
        let err = match IpRouter::new(cfg(28)) {
            Err(e) => e,
            Ok(_) => panic!("28 is one short and must be rejected"),
        };
        assert_eq!((err.port, err.mtu, err.min), (1, 28, 29));
        assert!(IpRouter::new(cfg(29)).is_ok());
        // Zero MTU (the original 0-byte fragment budget bug) is caught
        // by the same check.
        assert!(IpRouter::new(cfg(0)).is_err());
    }

    #[test]
    fn longest_prefix_wins() {
        let r = IpRouter::new(IpConfig {
            process_delay: SimDuration::ZERO,
            ports: vec![],
            routes: vec![
                RouteEntry {
                    prefix: Address::new(10, 0, 0, 0),
                    prefix_len: 8,
                    out_port: 1,
                    next_hop_mac: None,
                },
                RouteEntry {
                    prefix: Address::new(10, 0, 2, 0),
                    prefix_len: 24,
                    out_port: 2,
                    next_hop_mac: None,
                },
            ],
            queue_capacity: 1,
        })
        .expect("ip config");
        assert_eq!(r.lookup(Address::new(10, 0, 2, 9)).unwrap().out_port, 2);
        assert_eq!(r.lookup(Address::new(10, 7, 7, 7)).unwrap().out_port, 1);
        assert!(r.lookup(Address::new(11, 0, 0, 1)).is_none());
        assert_eq!(r.state_bytes(), 2 * 12);
    }
}
