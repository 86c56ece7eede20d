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
//! ordinary [`sirpent_router::ip::IpRouter`]s; the remote gateway
//! demultiplexes on the Sirpent protocol number and continues the source
//! route. Return hops name the *encapsulation port value*, so the
//! trailer-built reply route transparently re-crosses the cloud.

use std::any::Any;
use std::collections::VecDeque;

use sirpent_router::dataplane::{Discipline, OutputPort, Queued};
use sirpent_router::link::LinkFrame;
use sirpent_sim::stats::{DropReason, NodeStats, PipelineStats};
use sirpent_sim::{Context, Event, Node, SimDuration, SimTime};
use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::ipish;
use sirpent_wire::packet::{append_return_hop_buf, strip_front_segment_buf};
use sirpent_wire::viper::{Flags, SegmentRepr, PORT_LOCAL};

/// IP protocol number carried by encapsulated Sirpent packets (our
/// concretization of "an IP protocol number is assigned to the Sirpent
/// protocol").
pub const IPPROTO_SIRPENT: u8 = 0x5E;

/// Frames an output port holds behind the one in transmission; the
/// depth [`sirpent_router::viper::ViperConfig::basic`] gives a router.
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

enum Pending {
    FromSirpent { packet: PacketBuf, arrival_port: u8 },
    FromCloud { datagram: Vec<u8> },
}

/// The Sirpent↔IP gateway node.
pub struct IpGateway {
    cfg: GatewayConfig,
    /// Arrivals held for the processing delay, by timer key, oldest
    /// first.
    pending: VecDeque<(u64, Pending)>,
    next_key: u64,
    /// The cloud-facing port and the local ports.
    ports: Vec<OutputPort>,
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
            .map(|&p| OutputPort::new(p, Discipline::Fifo, QUEUE_CAPACITY))
            .collect();
        IpGateway {
            cfg,
            pending: VecDeque::new(),
            next_key: 1,
            ports,
            ident: 1,
            stats: GatewayStats::default(),
            local_delivered: Vec::new(),
        }
    }

    fn refuse(&mut self, why: DropReason) {
        self.stats.dropped += 1;
        self.stats.pipeline.drop(why);
    }

    /// Queue `frame` on `port` (drop-tail, counted inside `push`) and
    /// start it if the port is idle.
    fn send(&mut self, ctx: &mut Context<'_>, port: u8, frame: FrameBuf) {
        let stats = &mut self.stats.pipeline;
        if let Some(op) = self.ports.iter_mut().find(|p| p.port() == port) {
            op.push(ctx, Queued::fifo(frame, ctx.now(), None), stats);
            let _ = op.try_service(ctx, &mut (), stats);
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
                let pend = match LinkFrame::from_p2p_frame(&fe.frame.payload) {
                    Ok(LinkFrame::Ipish(datagram)) if from_cloud => Pending::FromCloud { datagram },
                    Ok(LinkFrame::Sirpent { packet, .. }) if !from_cloud => Pending::FromSirpent {
                        packet,
                        arrival_port: fe.port,
                    },
                    _ => {
                        self.refuse(DropReason::BadFrame);
                        return;
                    }
                };
                let key = self.next_key;
                self.next_key += 1;
                self.pending.push_back((key, pend));
                ctx.schedule_at(fe.last_bit + self.cfg.process_delay, key);
            }
            Event::Timer { key } => {
                // Timers fire in key order, so the match is nearly
                // always at the front.
                let held = self.pending.iter().position(|(k, _)| *k == key);
                match held.and_then(|i| self.pending.remove(i)).map(|(_, p)| p) {
                    Some(Pending::FromSirpent {
                        packet,
                        arrival_port,
                    }) => self.route(ctx, packet, arrival_port),
                    Some(Pending::FromCloud { datagram }) => self.on_cloud_datagram(ctx, datagram),
                    None => {}
                }
            }
            // A chaos-killed transmission frees the port just like a
            // completed one; the engine already accounted the loss.
            Event::TxDone { port, frame } | Event::TxAborted { port, frame } => {
                let stats = &mut self.stats.pipeline;
                if let Some(op) = self.ports.iter_mut().find(|p| p.port() == port) {
                    if op.on_tx_done(frame) {
                        let _ = op.try_service(ctx, &mut (), stats);
                    }
                }
            }
            Event::FrameAborted { .. } => {}
        }
    }

    fn node_stats(&self) -> Option<&dyn NodeStats> {
        Some(&self.stats.pipeline)
    }

    /// Crash/restart state-loss contract (chaos layer), as for
    /// `IpRouter`: the bindings are configuration and survive; held
    /// arrivals and output queues are lost, each a `RouterDown` drop.
    fn on_restart(&mut self) {
        for _ in 0..self.pending.len() {
            self.stats.pipeline.drop(DropReason::RouterDown);
        }
        self.pending.clear();
        for op in self.ports.iter_mut() {
            op.crash_purge(&mut self.stats.pipeline);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
