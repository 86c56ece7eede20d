//! Stage 1 — parse: link-frame decode, tunnel decapsulation,
//! feed-forward hint inspection, and the cut-through /
//! store-and-forward decision instant.

use sirpent_sim::stats::Stage;
use sirpent_sim::Context;
use sirpent_telemetry::HopKind;
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::ipish::{self, Datagram};
use sirpent_wire::viper::decode;

use crate::link::{decode_port_frame, LinkFrame, PortDecode};
use crate::logical::{LogicalTable, PortBinding};

use super::{header_len, Arrival, DropReason, Pending, SwitchMode, ViperRouter};

impl ViperRouter {
    pub(super) fn on_frame(&mut self, ctx: &mut Context<'_>, fe: sirpent_sim::FrameEvent) {
        let port = fe.port;
        let Some(op) = self.ports.get(&port) else {
            self.stats.drop(DropReason::BadFrame);
            return;
        };
        let kind = op.cfg.kind.clone();
        let (link, eth_return) = match decode_port_frame(&kind, &fe.frame.payload) {
            Ok(PortDecode::Frame(f, r)) => (f, r),
            Ok(PortDecode::NotForUs) => return, // the bus delivers to all
            Err(_) => {
                self.stats.drop(DropReason::ParseError);
                return;
            }
        };

        // A tunnel arrival keeps `eth_return` too: its return hop crosses
        // the cloud again from `via`, and on an Ethernet the reversed
        // header addresses the reply's datagram to the IP router this one
        // came from.
        let (packet, arrival_port, ff_hint, tunnel) = match link {
            LinkFrame::Sirpent { ff_hint, packet } => (packet, port, ff_hint, false),
            LinkFrame::Ipish(datagram) => match decapsulate(&self.cfg.logical, port, datagram) {
                Ok((value, packet)) => (packet, value, 0, true),
                Err(why) => {
                    self.stats.drop(why);
                    return;
                }
            },
            LinkFrame::RateControl(msg) => return self.on_rate_control(ctx, port, msg),
            LinkFrame::Cvc(_) => {
                self.stats.drop(DropReason::BadFrame);
                return;
            }
        };

        self.stats.enter(Stage::Parse);
        // The leading segment's output port and length, read once.
        let front = decode(packet.as_slice()).ok();
        // Feed-forward: a large hint warns that a burst is heading for
        // whatever queue these packets use; treat it as an early
        // congestion signal on this feeder.
        if self.cfg.congestion.enabled
            && self.cfg.congestion.use_feedforward
            && !tunnel
            && ff_hint as usize >= self.cfg.congestion.queue_high
        {
            if let Some(seg) = &front {
                if let PortBinding::Physical(p) = self.cfg.logical.resolve(seg.port) {
                    self.maybe_signal_feeder(ctx, p, port, ff_hint as usize);
                }
            }
        }
        // Decide when the pipeline may act on this packet.
        let ready = match self.cfg.mode {
            SwitchMode::CutThrough => {
                // The decision fields are at the very front of the
                // packet; the whole leading segment (port, token, info)
                // must be in before we can strip it.
                let seg_len = front.map_or(4, |s| s.len);
                fe.byte_arrival(header_len(&kind, tunnel) + seg_len) + self.cfg.decision_delay
            }
            SwitchMode::StoreAndForward { process_delay } => fe.last_bit + process_delay,
        };
        // Flight recorder: extract the packet identity exactly once, and
        // only when recording is on — the disabled path does no work
        // beyond this branch test.
        let flight_key = if ctx.flight_enabled() {
            crate::dataplane::flight_key_of(&packet)
        } else {
            None
        };
        if let Some(key) = flight_key {
            ctx.flight_record_at(fe.first_bit, key, HopKind::ArrivalFirstBit);
            if matches!(self.cfg.mode, SwitchMode::CutThrough) {
                ctx.flight_record_at(ready, key, HopKind::CutThroughStart);
            }
        }
        let arrival = Arrival {
            packet,
            arrival_port,
            eth_return,
            in_tail: fe.last_bit,
            first_bit: fe.first_bit,
            in_frame: fe.frame.id,
            flight_key,
        };
        // The frame's hold on the packet store goes first, so the
        // decision's trailer append runs in place.
        drop(fe);
        // §2.1: one decision per hop, as the header arrives. When nothing
        // can reach the router before that instant, it is made in this
        // event; otherwise a timer waits for it.
        if ctx.quiet_until(ready) {
            ctx.decide_at(ready, |ctx| self.process(ctx, arrival));
        } else {
            self.stats.decisions_deferred += 1;
            let in_frame = Some(arrival.in_frame);
            self.held
                .hold(ctx, ready, in_frame, Pending::Process(arrival));
        }
    }
}

/// Unwrap a datagram that arrived on physical port `via` (§2.3: "the
/// packet is demultiplexed to the Sirpent protocol module which
/// interprets the remainder of the packet header as a source route on
/// from that point"). Returns the port value of the tunnel it came
/// through and the Sirpent packet it carries, or why it is refused.
fn decapsulate(
    logical: &LogicalTable,
    via: u8,
    datagram: Datagram,
) -> Result<(u8, PacketBuf), DropReason> {
    if logical.tunnels_via(via).next().is_none() {
        return Err(DropReason::BadFrame);
    }
    let hdr = ipish::Repr::parse(datagram.header()).map_err(|_| DropReason::BadFrame)?;
    // The tunnels over `via` that this datagram is addressed to: each
    // sends from its own `local`, so each receives at it.
    let mut to_us = logical
        .tunnels_via(via)
        .filter(|&(_, local, _)| local == hdr.dst)
        .peekable();
    if to_us.peek().is_none() {
        return Err(DropReason::NoRoute);
    }
    if hdr.protocol != ipish::IPPROTO_SIRPENT {
        return Err(DropReason::BadFrame);
    }
    let (value, ..) = to_us
        .find(|&(.., remote)| remote == hdr.src)
        .ok_or(DropReason::NoRoute)?;
    let end = usize::from(hdr.total_len);
    if end < ipish::HEADER_LEN || end > datagram.len() {
        return Err(DropReason::BadLength);
    }
    let mut packet = datagram.payload;
    packet.truncate(end - ipish::HEADER_LEN);
    Ok((value, packet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipish::Address;

    const VIA: u8 = 2;

    fn datagram(protocol: u8, src: Address, dst: Address, total_len: usize) -> Datagram {
        let repr = ipish::Repr {
            tos: 0,
            total_len: total_len as u16,
            ident: 1,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: ipish::DEFAULT_TTL,
            protocol,
            src,
            dst,
        };
        Datagram::new(&repr, PacketBuf::from(&[1, 2, 3, 4]))
    }

    /// Each tunnel over one port receives at its own `local`, as it
    /// sends from it: a datagram is matched on both addresses, and a
    /// `total_len` short of the datagram cuts off the link's padding.
    #[test]
    fn a_tunnel_is_matched_on_both_its_addresses() {
        let (a, b, x, y) = (Address(1), Address(2), Address(8), Address(9));
        let mut t = LogicalTable::new();
        let tunnel = |local, remote| PortBinding::Tunnel {
            via: VIA,
            local,
            remote,
        };
        t.bind(100, tunnel(a, x));
        t.bind(101, tunnel(b, y));
        let value = |protocol, src, dst, len| {
            let d = datagram(protocol, src, dst, len);
            decapsulate(&t, VIA, d).map(|(v, p)| (v, p.to_vec()))
        };
        let sirpent = |src, dst| value(ipish::IPPROTO_SIRPENT, src, dst, ipish::HEADER_LEN + 4);
        assert_eq!(sirpent(x, a), Ok((100, vec![1, 2, 3, 4])));
        assert_eq!(sirpent(y, b), Ok((101, vec![1, 2, 3, 4])));
        assert_eq!(sirpent(y, a), Err(DropReason::NoRoute));
        assert_eq!(sirpent(x, b), Err(DropReason::NoRoute));
        assert_eq!(value(17, y, b, 24), Err(DropReason::BadFrame));
        let short = value(ipish::IPPROTO_SIRPENT, y, b, ipish::HEADER_LEN + 2);
        assert_eq!(short, Ok((101, vec![1, 2])));
    }
}
