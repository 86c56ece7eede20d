//! Stage 2 — route: strip the leading segment and resolve its port
//! through the logical table (identity, trunk, splice, multicast set,
//! broadcast, tree branches, tunnel).

use sirpent_sim::stats::Stage;
use sirpent_sim::Context;
use sirpent_wire::alt::{divert_onto_recovery, recovery_block_len};
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::packet::strip_front_segment_buf;
use sirpent_wire::viper::PORT_LOCAL;

use crate::dataplane::Work;
use crate::logical::PortBinding;
use crate::multicast::decode_tree;
use sirpent_telemetry::HopKind;

use super::{Arrival, DropReason, OutPorts, ViperRouter, MAX_DEPTH};

impl ViperRouter {
    pub(super) fn process(&mut self, ctx: &mut Context<'_>, a: Arrival) {
        // The decision instant: first-bit arrival → now spans link-frame
        // decode plus the cut-through/store-and-forward wait.
        self.stats
            .parse_latency_ns
            .record((ctx.now() - a.first_bit).as_nanos());
        if let Some(key) = a.flight_key {
            ctx.flight_record(key, HopKind::SwitchDecision);
        }
        let mut packet = a.packet;
        let seg = match strip_front_segment_buf(&mut packet) {
            Ok(s) => s,
            Err(_) => {
                self.drop_keyed(ctx, a.flight_key, DropReason::ParseError);
                return;
            }
        };
        let work = Work {
            packet,
            seg,
            arrival_port: Some(a.arrival_port),
            eth_return: a.eth_return,
            in_tail: a.in_tail,
            first_bit: a.first_bit,
            in_frame: Some(a.in_frame),
            depth: 0,
            flight_key: a.flight_key,
        };
        self.route_work(ctx, work);
    }

    /// Count a drop and, when the packet carries a flight key, record
    /// the matching flight-recorder drop event.
    pub(super) fn drop_keyed(
        &mut self,
        ctx: &mut Context<'_>,
        key: Option<u64>,
        reason: DropReason,
    ) {
        self.stats.drop(reason);
        if let Some(key) = key {
            ctx.flight_record(key, HopKind::Drop(reason.label()));
        }
    }

    pub(super) fn route_work(&mut self, ctx: &mut Context<'_>, work: Work) {
        if work.depth > MAX_DEPTH {
            self.drop_keyed(ctx, work.flight_key, DropReason::TooDeep);
            return;
        }
        self.stats.enter(Stage::Route);

        // Tree-structured multicast: the segment's portInfo holds branch
        // routes; each branch replaces the tree segment for one copy.
        if work.seg.flags().tree {
            let branches = match decode_tree(work.seg.port_info()) {
                Ok(b) => b,
                Err(_) => {
                    self.drop_keyed(ctx, work.flight_key, DropReason::BadStructure);
                    return;
                }
            };
            for branch in branches {
                // Tree expansion re-encodes the front of the packet, so
                // each branch copy materializes (the shared-body fan-out
                // applies to multicast *sets*, not tree re-writes).
                let mut bytes = branch;
                bytes.extend_from_slice(work.packet.as_slice());
                let mut pkt = PacketBuf::from_vec(bytes);
                let seg = match strip_front_segment_buf(&mut pkt) {
                    Ok(s) => s,
                    Err(_) => {
                        self.drop_keyed(ctx, work.flight_key, DropReason::ParseError);
                        continue;
                    }
                };
                self.route_work(
                    ctx,
                    Work {
                        packet: pkt,
                        seg,
                        arrival_port: work.arrival_port,
                        eth_return: work.eth_return,
                        in_tail: work.in_tail,
                        first_bit: work.first_bit,
                        in_frame: work.in_frame,
                        depth: work.depth + 1,
                        flight_key: work.flight_key,
                    },
                );
            }
            return;
        }

        if work.seg.port() == PORT_LOCAL {
            // A terminating segment's alternate slot is overloaded as the
            // recovery-list descriptor: the detour segments ride between
            // the header and the data and must be skipped on delivery.
            let mut payload = work.packet;
            if let Some(d) = work.seg.alt() {
                let block = recovery_block_len(payload.as_slice(), d.port).ok();
                let Some(n) = block.filter(|&n| n <= payload.len()) else {
                    self.drop_keyed(ctx, work.flight_key, DropReason::BadStructure);
                    return;
                };
                payload.advance(n);
            }
            self.stats.local += 1;
            if let Some(key) = work.flight_key {
                ctx.flight_record(key, HopKind::Delivered);
            }
            self.local_delivered.push((ctx.now(), payload));
            return;
        }

        let out_ports = match self.cfg.logical.resolve(work.seg.port()) {
            PortBinding::Physical(p) => {
                // One liveness question for both failure modes: a dead
                // wire and a crashed peer router are the same event to the
                // forwarding decision — divert if the segment carries an
                // alternate branch, else drop `NextHopDown`. (A port with
                // no channel at all falls through to the `NoSuchPort`
                // check below, as before.)
                if self.next_hop_up(ctx, p) {
                    OutPorts::One(p)
                } else {
                    self.divert_or_drop(ctx, work);
                    return;
                }
            }
            PortBinding::Tunnel { via, local, remote } => {
                // One logical hop across the IP cloud (§2.3): it is live
                // exactly when `via`'s link and peer are.
                if self.next_hop_up(ctx, via) {
                    OutPorts::Tunnel { via, local, remote }
                } else {
                    self.divert_or_drop(ctx, work);
                    return;
                }
            }
            PortBinding::Trunk { members, strategy } => {
                let now_ns = ctx.now().as_nanos();
                // Prefer a member that is idle *and* has an empty queue.
                let free_at = |m: u8| -> u64 {
                    let queued = self
                        .ports
                        .get(&m)
                        .map(|p| p.sched.len() + usize::from(p.sched.is_busy(ctx)))
                        .unwrap_or(usize::MAX);
                    if queued > 0 {
                        // Penalize occupied members so FirstFree skips them.
                        now_ns + 1 + queued as u64
                    } else {
                        ctx.channel_free_at(m)
                            .map(|t| t.as_nanos())
                            .unwrap_or(u64::MAX)
                    }
                };
                // An empty trunk picks nothing: dropped as `NoSuchPort`
                // below, like an empty multicast set.
                match self
                    .cfg
                    .logical
                    .pick_trunk_member(&members, strategy, free_at, now_ns)
                {
                    Some(p) => OutPorts::One(p),
                    None => OutPorts::Set(Vec::new()),
                }
            }
            PortBinding::Splice(route) => {
                // Logical hop: replace the segment with the explicit
                // route and re-route (the Blazenet entry operation). The
                // splice costs one extra pass, mirroring "the packet
                // delay of adding this routing information".
                let mut bytes = Vec::new();
                for s in &route {
                    bytes.extend_from_slice(&s.to_bytes());
                }
                bytes.extend_from_slice(work.packet.as_slice());
                let mut pkt = PacketBuf::from_vec(bytes);
                let seg = match strip_front_segment_buf(&mut pkt) {
                    Ok(s) => s,
                    Err(_) => {
                        self.drop_keyed(ctx, work.flight_key, DropReason::BadStructure);
                        return;
                    }
                };
                self.route_work(
                    ctx,
                    Work {
                        packet: pkt,
                        seg,
                        depth: work.depth + 1,
                        ..work
                    },
                );
                return;
            }
            PortBinding::MulticastSet(ports) => OutPorts::Set(ports),
            PortBinding::Broadcast => {
                // A packet that came through a tunnel arrived on its
                // `via` too: no copy goes back onto that cloud.
                let arrival_via =
                    work.arrival_port
                        .and_then(|p| match self.cfg.logical.resolve(p) {
                            PortBinding::Tunnel { via, .. } => Some(via),
                            _ => None,
                        });
                // Sorted for a deterministic fan-out order (the port map
                // itself is hashed).
                let mut ps: Vec<u8> = self
                    .ports
                    .keys()
                    .copied()
                    .filter(|&p| Some(p) != work.arrival_port && Some(p) != arrival_via)
                    .collect();
                ps.sort_unstable();
                OutPorts::Set(ps)
            }
        };

        let ports = out_ports.as_slice();
        if ports.is_empty() || ports.iter().any(|p| !self.ports.contains_key(p)) {
            self.drop_keyed(ctx, work.flight_key, DropReason::NoSuchPort);
            return;
        }

        self.auth_then_forward(ctx, work, out_ports);
    }

    /// Whether the resolved next hop is reachable *right now*: the
    /// outgoing channel is up **and** the peer behind it (when the
    /// channel is point-to-point) is running. Ports without an attached
    /// channel answer `true` so the legacy `NoSuchPort` accounting keeps
    /// claiming them.
    fn next_hop_up(&self, ctx: &Context<'_>, port: u8) -> bool {
        ctx.link_up(port).unwrap_or(true) && ctx.peer_up(port).unwrap_or(true)
    }

    /// The primary next hop is down. Splice onto the segment's alternate
    /// branch if it carries one and the detour's first hop is itself
    /// alive; otherwise drop with the unified `NextHopDown` reason.
    fn divert_or_drop(&mut self, ctx: &mut Context<'_>, work: Work) {
        let Some(ab) = work.seg.alt() else {
            self.stats.failover.no_alternate += 1;
            self.drop_keyed(ctx, work.flight_key, DropReason::NextHopDown);
            return;
        };
        // No nested alternates: the recovery list is branch-free, so a
        // detour whose own first hop is dead has nowhere left to go.
        let alt_alive = self.ports.contains_key(&ab.port)
            && matches!(ctx.link_up(ab.port), Ok(true))
            && matches!(ctx.peer_up(ab.port), Ok(true));
        if !alt_alive {
            self.stats.failover.alternate_down += 1;
            self.drop_keyed(ctx, work.flight_key, DropReason::NextHopDown);
            return;
        }
        // Rebuild the header in place: detour segments from the splice
        // point replace the remaining primary route; the landing router
        // strips `recovery[splice]` through the ordinary route stage.
        let diverted = match divert_onto_recovery(work.packet.as_slice(), ab.splice) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.drop_keyed(ctx, work.flight_key, DropReason::BadStructure);
                return;
            }
        };
        self.stats.failover.diversions += 1;
        if let Some(key) = work.flight_key {
            ctx.flight_record(key, HopKind::Diverted);
        }
        let out = ab.port;
        let work = Work {
            packet: PacketBuf::from_vec(diverted),
            ..work
        };
        self.auth_then_forward(ctx, work, OutPorts::One(out));
    }
}
