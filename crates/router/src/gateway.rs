//! Sirpent over IP: the internetwork as one logical hop (§2.3).
//!
//! "The Sirpent approach can be viewed and implemented as an extended
//! form of IP as follows. An IP protocol number is assigned to the
//! Sirpent protocol. A Sirpent packet can view the Internet as providing
//! one logical hop across its internetwork. That is, the packet is
//! source routed to an IP host or gateway so that the header is now an
//! IP header. The host/gateway uses standard IP to route the packet to
//! the specified destination host. At this point, the packet is
//! demultiplexed to the Sirpent protocol module which interprets the
//! remainder of the packet header as a source route on from that point."
//!
//! [`IpGateway`] is that host/gateway: some of its VIPER port values are
//! bound to *remote gateways' IP addresses*; a packet routed to such a
//! port is encapsulated in an IP-like datagram and crosses a cloud of
//! ordinary [`crate::ip::IpRouter`]s; the remote gateway
//! demultiplexes on the Sirpent protocol number and continues the source
//! route. Return hops name the *encapsulation port value*, so the
//! trailer-built reply route transparently re-crosses the cloud.

use std::any::Any;

use sirpent_sim::stats::{DropReason, NodeStats, PipelineStats};
use sirpent_sim::{Context, Event, Node, SimDuration, SimTime};
use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::ipish;
use sirpent_wire::packet::{append_return_hop_buf, strip_front_segment_buf};
use sirpent_wire::viper::{Flags, SegmentRepr, PORT_LOCAL};

use crate::dataplane::{Discipline, Held, OutputPort, Port, PortSet, Queued};
use crate::link::LinkFrame;

/// IP protocol number carried by encapsulated Sirpent packets (our
/// concretization of "an IP protocol number is assigned to the Sirpent
/// protocol").
pub const IPPROTO_SIRPENT: u8 = 0x5E;

/// Frames an output port holds behind the one in transmission; the
/// depth [`crate::viper::ViperConfig::basic`] gives a router.
const QUEUE_CAPACITY: usize = 64;

/// Gateway configuration.
pub struct GatewayConfig {
    /// This gateway's address in the IP cloud.
    pub my_ip: ipish::Address,
    /// The port facing the IP cloud (point-to-point to an IP router).
    pub ip_port: u8,
    /// VIPER port value → remote gateway address: using this port value
    /// in a route means "one logical hop across the cloud to there".
    pub encap_map: Vec<(u8, ipish::Address)>,
    /// Sirpent-facing point-to-point ports.
    pub local_ports: Vec<u8>,
    /// Per-packet processing delay (the gateway is a host-grade node,
    /// store-and-forward).
    pub process_delay: SimDuration,
    /// TTL stamped on encapsulating datagrams.
    pub ttl: u8,
}

/// Counters.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Sirpent packets wrapped into datagrams.
    pub encapsulated: u64,
    /// Datagrams unwrapped back into Sirpent packets.
    pub decapsulated: u64,
    /// Plain Sirpent forwards between local ports.
    pub forwarded_local: u64,
    /// Packets the gateway refused (no binding / parse failure / wrong
    /// protocol); each is also in `pipeline` under its reason.
    pub dropped: u64,
    /// The shared per-drop-reason and queue counters, which also hold
    /// what the output ports and a crash lose.
    pub pipeline: PipelineStats,
}

/// An arrival held for the processing delay.
enum Arrival {
    FromSirpent { packet: PacketBuf, arrival_port: u8 },
    FromCloud { datagram: Vec<u8> },
}

/// The Sirpent↔IP gateway node.
pub struct IpGateway {
    cfg: GatewayConfig,
    held: Held<Arrival>,
    /// The cloud-facing port and the local ports.
    ports: PortSet<()>,
    ident: u16,
    /// Counters.
    pub stats: GatewayStats,
    /// Packets whose final segment addressed the gateway itself.
    pub local_delivered: Vec<(SimTime, Vec<u8>)>,
}

impl IpGateway {
    /// Build a gateway.
    pub fn new(cfg: GatewayConfig) -> IpGateway {
        let ports = std::iter::once(&cfg.ip_port)
            .chain(&cfg.local_ports)
            .map(|&p| {
                let sched = OutputPort::new(p, Discipline::Fifo, QUEUE_CAPACITY);
                (p, Port { cfg: (), sched })
            })
            .collect();
        IpGateway {
            cfg,
            held: Held::new(),
            ports,
            ident: 1,
            stats: GatewayStats::default(),
            local_delivered: Vec::new(),
        }
    }

    /// Total frames sitting in output queues across all ports (the chaos
    /// harness's in-system conservation term).
    pub fn queued_frames(&self) -> u64 {
        self.ports.queued_frames()
    }

    fn refuse(&mut self, why: DropReason) {
        self.stats.dropped += 1;
        self.stats.pipeline.drop(why);
    }

    /// Queue `frame` on `port` (drop-tail, counted inside `push`) and
    /// start it if the port is idle.
    fn send(&mut self, ctx: &mut Context<'_>, port: u8, frame: FrameBuf) {
        let stats = &mut self.stats.pipeline;
        if let Some(p) = self.ports.get_mut(&port) {
            p.sched
                .push(ctx, Queued::fifo(frame, ctx.now(), None), stats);
            self.ports.serve(ctx, port, &mut (), stats);
        }
    }

    /// Route a Sirpent packet whose leading segment has just become
    /// current. `arrival_id` identifies where it came from (a local port
    /// number, or the encap port value for cloud arrivals) for the
    /// return hop.
    fn route(&mut self, ctx: &mut Context<'_>, mut packet: PacketBuf, arrival_id: u8) {
        let Ok(seg) = strip_front_segment_buf(&mut packet) else {
            self.refuse(DropReason::ParseError);
            return;
        };
        if seg.port() == PORT_LOCAL {
            self.local_delivered.push((ctx.now(), packet.to_vec()));
            return;
        }
        // Return hop names where the packet came *from* (§2). Extract
        // the fields first, then release the view so the append runs on
        // a uniquely-owned store.
        let out_port = seg.port();
        let return_hop = SegmentRepr {
            port: arrival_id,
            flags: Flags {
                rpf: true,
                ..Default::default()
            },
            priority: seg.priority(),
            port_token: seg.port_token().to_vec(),
            port_info: Vec::new(),
            alt: None,
        };
        drop(seg);
        if append_return_hop_buf(&mut packet, return_hop).is_err() {
            self.refuse(DropReason::BadStructure);
            return;
        }

        if let Some(&(_, remote)) = self.cfg.encap_map.iter().find(|&&(p, _)| p == out_port) {
            // One logical hop across the cloud: encapsulate.
            let mut dgram = ipish::Repr {
                tos: 0,
                total_len: (ipish::HEADER_LEN + packet.len()) as u16,
                ident: self.ident,
                dont_frag: false,
                more_frags: false,
                frag_offset: 0,
                ttl: self.cfg.ttl,
                protocol: IPPROTO_SIRPENT,
                src: self.cfg.my_ip,
                dst: remote,
            }
            .to_bytes();
            self.ident = self.ident.wrapping_add(1);
            dgram.extend_from_slice(packet.as_slice());
            self.stats.encapsulated += 1;
            let frame = LinkFrame::Ipish(dgram).into_p2p_frame();
            self.send(ctx, self.cfg.ip_port, frame);
        } else if self.cfg.local_ports.contains(&out_port) {
            self.stats.forwarded_local += 1;
            let frame = LinkFrame::Sirpent { ff_hint: 0, packet }.into_p2p_frame();
            self.send(ctx, out_port, frame);
        } else {
            self.refuse(DropReason::NoSuchPort);
        }
    }

    fn on_cloud_datagram(&mut self, ctx: &mut Context<'_>, datagram: Vec<u8>) {
        let Ok(hdr) = ipish::Repr::parse(&datagram) else {
            self.refuse(DropReason::BadFrame);
            return;
        };
        if hdr.dst != self.cfg.my_ip {
            self.refuse(DropReason::NoRoute);
            return;
        }
        if hdr.protocol != IPPROTO_SIRPENT {
            self.refuse(DropReason::BadFrame);
            return;
        }
        // Demultiplex to the Sirpent module (§2.3): the datagram payload
        // resumes the source route. The virtual arrival "port" is the
        // encap value bound to the *sending* gateway, so replies
        // re-cross the cloud.
        let bound = self.cfg.encap_map.iter().find(|&&(_, ip)| ip == hdr.src);
        let Some(&(arrival, _)) = bound else {
            self.refuse(DropReason::NoRoute);
            return;
        };
        let Some(body) = datagram.get(ipish::HEADER_LEN..hdr.total_len as usize) else {
            self.refuse(DropReason::BadLength);
            return;
        };
        self.stats.decapsulated += 1;
        self.route(ctx, PacketBuf::from(body), arrival);
    }
}

impl Node for IpGateway {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                let from_cloud = fe.port == self.cfg.ip_port;
                let arrival = match LinkFrame::from_p2p_frame(&fe.frame.payload) {
                    Ok(LinkFrame::Ipish(datagram)) if from_cloud => Arrival::FromCloud { datagram },
                    Ok(LinkFrame::Sirpent { packet, .. }) if !from_cloud => Arrival::FromSirpent {
                        packet,
                        arrival_port: fe.port,
                    },
                    _ => {
                        self.refuse(DropReason::BadFrame);
                        return;
                    }
                };
                let at = fe.last_bit + self.cfg.process_delay;
                self.held.hold(ctx, at, Some(fe.frame.id), arrival);
            }
            Event::Timer { key } => match self.held.take(key) {
                Some(Arrival::FromSirpent {
                    packet,
                    arrival_port,
                }) => self.route(ctx, packet, arrival_port),
                Some(Arrival::FromCloud { datagram }) => self.on_cloud_datagram(ctx, datagram),
                None => {}
            },
            Event::TxDone { port, frame } | Event::TxAborted { port, frame } => {
                let stats = &mut self.stats.pipeline;
                self.ports.on_tx_end(ctx, port, frame, &mut (), stats);
            }
            Event::FrameAborted { frame, .. } => {
                self.held.abort(frame);
                let stats = &mut self.stats.pipeline;
                self.ports.on_frame_aborted(ctx, frame, &mut (), stats);
            }
        }
    }

    fn node_stats(&self) -> Option<&dyn NodeStats> {
        Some(&self.stats.pipeline)
    }

    fn publish_telemetry(
        &self,
        reg: &mut sirpent_telemetry::Registry,
    ) -> Result<(), sirpent_telemetry::RegistryError> {
        self.ports.publish(&self.stats.pipeline, reg)
    }

    /// Crash/restart state-loss contract (chaos layer), as for
    /// `IpRouter`: the bindings are configuration and survive; held
    /// arrivals and output queues are lost, each a `RouterDown` drop.
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
