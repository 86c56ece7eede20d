//! Stages 5–6 — enqueue and transmit: return-hop trailer construction,
//! MTU truncation, link framing (a tunnel's IP-like datagram among
//! them), and the hand-off to the shared
//! [`crate::dataplane::OutputPort`] scheduler. VIPER-specific service
//! policy (rate-limit release times and charging) plugs into the
//! scheduler through [`ServiceHooks`].

use sirpent_sim::{transmission_time, Context, FrameId, SimTime};
use sirpent_telemetry::HopKind;
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::packet::truncate_packet_buf;
use sirpent_wire::trailer;
use sirpent_wire::viper::{decode, Flags, Priority, SegmentRef};
use sirpent_wire::{ethernet, ipish};

use crate::dataplane::{PortSet, Queued, ServiceHooks, StartedTx, Work};
use crate::link::LinkFrame;

use super::{
    header_len, DropReason, FlowLimit, OutPorts, PipelineStats, PortConfig, PortKind, ViperRouter,
};

/// The longest port token a return hop carries from the stack: twice a
/// sealed token. A longer one is copied to the heap.
const TOKEN_ROOM: usize = 64;

/// Per-packet transmit metadata extracted from the stripped segment.
/// Everything is `Copy` so the output stage never borrows (or keeps
/// alive) the packet's shared store.
#[derive(Clone, Copy)]
struct TxMeta {
    priority: Priority,
    dib: bool,
    /// Next-hop Ethernet destination parsed from the stripped segment's
    /// portInfo (full or compressed form), if any.
    eth_dst: Option<ethernet::Address>,
    /// The `(local, remote)` addresses of the tunnel the packet leaves
    /// through, if it does.
    tunnel: Option<(ipish::Address, ipish::Address)>,
}

/// The VIPER policy plugged into the shared scheduler: rate-limit
/// release times and charging. Borrows only the router field it needs so
/// the scheduler can be driven with the port map split off.
struct ViperHooks<'a> {
    limits: &'a mut Vec<FlowLimit>,
}

impl ServiceHooks for ViperHooks<'_> {
    /// When this queued packet may start, considering cut-through
    /// arrival and installed rate limits.
    fn release_time(&self, out: u8, q: &Queued) -> SimTime {
        let mut t = q.earliest;
        if let Some(next) = q.next_seg_port {
            for l in self.limits.iter() {
                if l.out_port == out && l.next_port == next {
                    t = t.max(l.next_release);
                }
            }
        }
        t
    }

    fn on_started(&mut self, out: u8, tx: &StartedTx) {
        // Charge rate limits.
        if let Some(next) = tx.next_seg_port {
            for l in self.limits.iter_mut() {
                if l.out_port == out && l.next_port == next {
                    l.next_release = tx.start + transmission_time(tx.len, l.allowed_bps.max(1));
                }
            }
        }
    }
}

impl ViperRouter {
    pub(super) fn finish_forward(
        &mut self,
        ctx: &mut Context<'_>,
        work: Work,
        out_ports: OutPorts,
    ) {
        let Work {
            mut packet,
            seg,
            arrival_port,
            eth_return,
            in_tail,
            first_bit,
            in_frame,
            flight_key,
            ..
        } = work;
        // Copy the per-hop metadata out of the segment view (all `Copy`),
        // then release the view: it holds a reference on the packet's
        // shared store, and the trailer append below runs in place only
        // when the router owns that store uniquely.
        let meta = TxMeta {
            priority: seg.priority(),
            dib: seg.flags().dib,
            eth_dst: {
                // The stripped segment's portInfo names the next-hop
                // network header; resolve the Ethernet destination now so
                // the output stage needs no borrowed segment bytes.
                let info = seg.port_info();
                if info.len() == ethernet::COMPRESSED_LEN {
                    ethernet::Repr::parse_compressed(info, ethernet::Address::BROADCAST)
                        .ok()
                        .map(|h| h.dst)
                } else {
                    ethernet::Repr::parse(info).ok().map(|h| h.dst)
                }
            },
            tunnel: match out_ports {
                OutPorts::Tunnel { local, remote, .. } => Some((local, remote)),
                _ => None,
            },
        };
        // Return hop: arrival port, same link token, reversed network
        // header of the arrival network (§2). The token is copied to the
        // stack (to the heap only past `TOKEN_ROOM`) so the view can be
        // released before the append.
        let token = seg.port_token();
        let mut held = [0u8; TOKEN_ROOM];
        let spilled: Vec<u8>;
        let token: &[u8] = match held.get_mut(..token.len()) {
            Some(room) => {
                room.copy_from_slice(token);
                room
            }
            None => {
                spilled = token.to_vec();
                &spilled
            }
        };
        drop(seg);
        let mut info = [0u8; ethernet::HEADER_LEN];
        let info: &[u8] = match eth_return.map(|h| h.emit(&mut info)) {
            Some(Ok(len)) => info.get(..len).unwrap_or_default(),
            _ => &[],
        };
        if let Some(ap) = arrival_port {
            let return_hop = SegmentRef {
                port: ap,
                flags: Flags {
                    rpf: true,
                    ..Default::default()
                },
                priority: meta.priority,
                port_token: token,
                port_info: info,
                alt: None,
            };
            if trailer::append_return_hop(return_hop, &mut packet).is_err() {
                self.stats.drop(DropReason::BadStructure);
                return;
            }
            if let Some(key) = flight_key {
                ctx.flight_record(key, HopKind::TrailerAppend);
            }
        }

        let out_ports = out_ports.as_slice();
        let copies = out_ports.len();
        for (i, &out) in out_ports.iter().enumerate() {
            // Fan-out shares the store: every copy but the last is an
            // O(1) reference-counted clone, never a byte copy.
            let pkt = if i + 1 == copies {
                std::mem::take(&mut packet)
            } else {
                packet.clone()
            };
            self.enqueue(
                ctx,
                out,
                pkt,
                meta,
                arrival_port,
                in_tail,
                first_bit,
                in_frame,
                flight_key,
            );
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one call site, the fan-out loop: a struct for its arrival record would be a type used once"
    )]
    fn enqueue(
        &mut self,
        ctx: &mut Context<'_>,
        out: u8,
        mut packet: PacketBuf,
        meta: TxMeta,
        arrival_port: Option<u8>,
        in_tail: SimTime,
        first_bit: SimTime,
        in_frame: Option<FrameId>,
        flight_key: Option<u64>,
    ) {
        let Ok(out_rate) = ctx.channel_rate(out) else {
            self.stats.drop(DropReason::NoSuchPort);
            return;
        };
        let next_seg_port = decode(packet.as_slice()).ok().map(|s| s.port);
        let (mtu, kind, qlen) = {
            let Some(op) = self.ports.get(&out) else {
                self.stats.drop(DropReason::NoSuchPort);
                return;
            };
            (op.cfg.mtu, op.cfg.kind.clone(), op.sched.len())
        };

        let ethernet = match &kind {
            PortKind::PointToPoint => None,
            // The stripped segment's portInfo was the Ethernet header for
            // this hop (§2's running example), already resolved to a
            // destination in `meta`.
            PortKind::Ethernet { mac } => match meta.eth_dst {
                Some(dst) => Some((*mac, dst)),
                None => {
                    self.stats.drop(DropReason::BadStructure);
                    return;
                }
            },
        };

        // Next-hop MTU: truncate and mark (§2) — the receiver's transport
        // detects the damage; nothing is silently lost.
        let overhead = header_len(&kind, meta.tunnel.is_some());
        if overhead + packet.len() > mtu {
            let marker = 7; // truncation trailer entry size
            truncate_packet_buf(&mut packet, mtu.saturating_sub(overhead + marker));
            self.stats.truncated += 1;
        }

        // Frame for the outgoing network: a small owned link header in
        // front of the shared packet body — the body is never copied; a
        // tunnel puts its IP header in the link header too.
        let link_frame = match meta.tunnel {
            None => LinkFrame::Sirpent {
                ff_hint: qlen.min(255) as u8,
                packet,
            },
            Some((local, remote)) => {
                let Ok(total_len) = ipish::checked_total_len(packet.len()) else {
                    self.stats.drop(DropReason::BadLength);
                    return;
                };
                let repr = ipish::Repr {
                    total_len,
                    ident: self.ident,
                    ttl: ipish::DEFAULT_TTL,
                    protocol: ipish::IPPROTO_SIRPENT,
                    src: local,
                    dst: remote,
                    ..Default::default()
                };
                self.ident = self.ident.wrapping_add(1);
                LinkFrame::Ipish(ipish::Datagram::new(&repr, packet))
            }
        };
        let frame = match ethernet {
            None => link_frame.into_p2p_frame(),
            Some((src, dst)) => link_frame.into_ethernet_frame(src, dst),
        };

        // Cut-through constraint: we may not finish transmitting before
        // the tail has arrived (equal-rate links make this vacuous; on a
        // faster output it delays the start; §2.1 notes cut-through
        // applies when rates match).
        let out_tx = transmission_time(frame.len(), out_rate);
        let now = ctx.now();
        let earliest = if in_tail > now + out_tx {
            SimTime(in_tail.as_nanos().saturating_sub(out_tx.as_nanos()))
        } else {
            now
        };

        let ViperRouter { ports, stats, .. } = self;
        let Some(op) = ports.get_mut(&out) else {
            stats.drop(DropReason::NoSuchPort);
            return;
        };
        let pushed = {
            op.sched.push(
                ctx,
                Queued {
                    frame,
                    priority: meta.priority,
                    dib: meta.dib,
                    earliest,
                    next_seg_port,
                    arrival_port,
                    record: Some(first_bit),
                    in_frame,
                    flight_key,
                    enqueued_at: now,
                    seq: 0,
                },
                &mut stats.pipeline,
            )
        };
        if !pushed {
            self.maybe_signal_congestion(ctx, out);
            return;
        }
        self.maybe_signal_congestion(ctx, out);
        self.service_port(ctx, out);
    }

    // ----- output service -----------------------------------------------

    /// The port set, with the VIPER policy hooks and the counters that
    /// drive it.
    fn port_set(&mut self) -> (&mut PortSet<PortConfig>, ViperHooks<'_>, &mut PipelineStats) {
        let ViperRouter {
            ports,
            limits,
            stats,
            ..
        } = self;
        (ports, ViperHooks { limits }, &mut stats.pipeline)
    }

    /// Drive the shared scheduler on one port, with the VIPER policy
    /// hooks plugged in.
    pub(super) fn service_port(&mut self, ctx: &mut Context<'_>, out: u8) {
        let (ports, mut hooks, stats) = self.port_set();
        ports.serve(ctx, out, &mut hooks, stats);
    }

    /// A port's transmission ended (armed completion or engine kill).
    pub(super) fn on_tx_end(&mut self, ctx: &mut Context<'_>, port: u8, frame: FrameId) {
        let (ports, mut hooks, stats) = self.port_set();
        ports.on_tx_end(ctx, port, frame, &mut hooks, stats);
    }

    /// The upstream sender aborted a frame we may be holding or cutting
    /// through.
    pub(super) fn on_frame_aborted(&mut self, ctx: &mut Context<'_>, in_frame: FrameId) {
        self.held.abort(in_frame);
        let (ports, mut hooks, stats) = self.port_set();
        ports.on_frame_aborted(ctx, in_frame, &mut hooks, stats);
    }
}
