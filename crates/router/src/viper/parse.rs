//! Stage 1 — parse: link-frame decode, feed-forward hint inspection,
//! and the cut-through / store-and-forward decision instant.

use sirpent_sim::stats::Stage;
use sirpent_sim::Context;
use sirpent_telemetry::HopKind;
use sirpent_wire::ethernet;
use sirpent_wire::viper::decode;

use crate::link::{decode_port_frame, LinkFrame, PortDecode};
use crate::logical::PortBinding;

use super::{Arrival, DropReason, Pending, PortKind, SwitchMode, ViperRouter};

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

        match link {
            LinkFrame::Sirpent { ff_hint, packet } => {
                self.stats.enter(Stage::Parse);
                // The leading segment's output port and length, read once.
                let front = decode(packet.as_slice()).ok();
                // Feed-forward: a large hint warns that a burst is
                // heading for whatever queue these packets use; treat it
                // as an early congestion signal on this feeder.
                if self.cfg.congestion.enabled
                    && self.cfg.congestion.use_feedforward
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
                        // The decision fields are at the very front of
                        // the frame; the whole leading segment (port,
                        // token, info) must be in before we can strip it.
                        let link_hdr = match kind {
                            PortKind::PointToPoint => 2,
                            PortKind::Ethernet { .. } => ethernet::HEADER_LEN + 2,
                        };
                        let seg_len = front.map_or(4, |s| s.len);
                        fe.byte_arrival(link_hdr + seg_len) + self.cfg.decision_delay
                    }
                    SwitchMode::StoreAndForward { process_delay } => fe.last_bit + process_delay,
                };
                // Flight recorder: extract the packet identity exactly
                // once, and only when recording is on — the disabled
                // path does no work beyond this branch test.
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
                    arrival_port: port,
                    eth_return,
                    in_tail: fe.last_bit,
                    first_bit: fe.first_bit,
                    in_frame: fe.frame.id,
                    flight_key,
                };
                // The frame's hold on the packet store goes first, so the
                // decision's trailer append runs in place.
                drop(fe);
                // §2.1: one decision per hop, as the header arrives. When
                // nothing can reach the router before that instant, it is
                // made in this event; otherwise a timer waits for it.
                if ctx.quiet_until(ready) {
                    ctx.decide_at(ready, |ctx| self.process(ctx, arrival));
                } else {
                    self.stats.decisions_deferred += 1;
                    let in_frame = Some(arrival.in_frame);
                    self.held
                        .hold(ctx, ready, in_frame, Pending::Process(arrival));
                }
            }
            LinkFrame::RateControl(msg) => self.on_rate_control(ctx, port, msg),
            LinkFrame::Ipish(_) | LinkFrame::Cvc(_) => {
                self.stats.drop(DropReason::BadFrame);
            }
        }
    }
}
