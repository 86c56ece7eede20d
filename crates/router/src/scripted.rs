//! A scripted endpoint node for tests, examples and benches.
//!
//! `ScriptedHost` transmits pre-built link frames at chosen instants and
//! records everything it receives, with timing. It implements no
//! protocol logic of its own — the full Sirpent host stack lives in the
//! `sirpent` core crate — but it is exactly what router-level tests and
//! delay measurements need: a deterministic packet gun and a sink.

use std::any::Any;

use sirpent_sim::stats::{DropReason, PipelineStats, Stage};
use sirpent_sim::{Context, Event, Node, SimError, SimTime};
use sirpent_wire::buf::FrameBuf;
use sirpent_wire::ethernet;

use sirpent_telemetry::HopKind;

use crate::link::LinkFrame;

/// Flight-recorder identity of a decoded link frame, extracted the way
/// the owning plane would — Sirpent packets via the packet payload,
/// ipish datagrams via the post-header payload, CVC `Data` messages via
/// the message payload. Control traffic carries no key. Never panics.
fn link_flight_key(link: &LinkFrame) -> Option<u64> {
    match link {
        LinkFrame::Sirpent { packet, .. } => crate::dataplane::flight_key_of(packet),
        LinkFrame::Ipish(datagram) => crate::ip::ip_flight_key(datagram),
        LinkFrame::Cvc(msg) => crate::cvc::cvc_flight_key(msg.as_ref().ok()?),
        LinkFrame::RateControl(_) => None,
    }
}

/// [`link_flight_key`] of a frame on the wire: try the point-to-point
/// framing first, then Ethernet. Undecodable frames carry no key.
fn frame_flight_key(frame: &FrameBuf) -> Option<u64> {
    let link = match LinkFrame::from_p2p_frame(frame) {
        Ok(f) => f,
        Err(_) => LinkFrame::from_ethernet_frame(frame).ok()?.1,
    };
    link_flight_key(&link)
}

/// One record of a received frame.
#[derive(Debug, Clone)]
pub struct Received {
    /// When the first bit arrived.
    pub first_bit: SimTime,
    /// When the last bit arrived.
    pub last_bit: SimTime,
    /// Arrival port.
    pub port: u8,
    /// The frame as it arrived (body shared with the sender's copy).
    pub frame: FrameBuf,
    /// Whether fault injection corrupted this copy.
    pub corrupted: bool,
    /// Engine frame id (for abort matching).
    pub frame_id: sirpent_sim::FrameId,
}

/// A transmission scheduled on a scripted host.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When to send.
    pub at: SimTime,
    /// Which local port to send on.
    pub port: u8,
    /// The link frame to put on the wire, header included.
    pub frame: FrameBuf,
}

/// The scripted endpoint.
#[derive(Default)]
pub struct ScriptedHost {
    plan: Vec<Planned>,
    next: usize,
    /// Everything received, in arrival order.
    pub received: Vec<Received>,
    /// Ethernet filter: when set, frames on Ethernet ports whose
    /// destination is neither this address nor broadcast are ignored.
    pub mac: Option<ethernet::Address>,
    /// Count of frames ignored by the MAC filter.
    pub filtered: u64,
    /// TxDone instants observed.
    pub tx_done: Vec<SimTime>,
    /// Frames whose transmission was aborted upstream (preemption):
    /// removed from `received`, counted here.
    pub aborted: u64,
    /// The unified scrape surface every node exposes: planned sends
    /// count as `forwarded`, accepted receptions as `local`.
    pub stats: PipelineStats,
}

/// Timer key used internally to trigger planned sends.
const KEY_SEND: u64 = 1;

impl ScriptedHost {
    /// Create an empty host (attach plans with [`ScriptedHost::plan`]).
    pub fn new() -> ScriptedHost {
        ScriptedHost::default()
    }

    /// Add one planned transmission. Plans must be added before the
    /// simulation starts and be kicked with [`ScriptedHost::start`].
    pub fn plan(&mut self, at: SimTime, port: u8, frame: impl Into<FrameBuf>) {
        let frame = frame.into();
        self.plan.push(Planned { at, port, frame });
    }

    /// Sort pending plans and arm the next timer. Call after adding
    /// plans; may be called repeatedly mid-simulation to arm plans added
    /// later.
    pub fn start(sim: &mut sirpent_sim::Simulator, me: sirpent_sim::NodeId) {
        let now = sim.now();
        let host = sim.node_mut::<ScriptedHost>(me);
        let n = host.next;
        host.plan[n..].sort_by_key(|p| p.at);
        if let Some(next) = host.plan.get(n) {
            let at = next.at.max(now);
            sim.kick(at, me, KEY_SEND);
        }
    }

    /// Received frames decoded as point-to-point link frames (decode
    /// failures skipped).
    pub fn received_p2p(&self) -> Vec<(SimTime, LinkFrame)> {
        self.received
            .iter()
            .filter_map(|r| {
                LinkFrame::from_p2p_frame(&r.frame)
                    .ok()
                    .map(|f| (r.last_bit, f))
            })
            .collect()
    }
}

impl Node for ScriptedHost {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                if let Some(mac) = self.mac {
                    if let Some(p) = fe.frame.payload.prefix(ethernet::HEADER_LEN) {
                        if let Ok(hdr) = ethernet::Repr::parse(&p) {
                            if hdr.dst != mac && !hdr.dst.is_broadcast() {
                                self.filtered += 1;
                                return;
                            }
                        }
                    }
                }
                self.stats.enter(Stage::Parse);
                self.stats.local += 1;
                if ctx.flight_enabled() {
                    if let Some(key) = frame_flight_key(&fe.frame.payload) {
                        ctx.flight_record_at(fe.last_bit, key, HopKind::Delivered);
                    }
                }
                self.received.push(Received {
                    first_bit: fe.first_bit,
                    last_bit: fe.last_bit,
                    port: fe.port,
                    frame: fe.frame.payload,
                    corrupted: fe.corrupted,
                    frame_id: fe.frame.id,
                });
            }
            Event::Timer { key: KEY_SEND } => {
                // Send every plan due now, then arm the next.
                while self.next < self.plan.len() && self.plan[self.next].at <= ctx.now() {
                    let p = self.plan[self.next].clone();
                    self.next += 1;
                    let key = if ctx.flight_enabled() {
                        frame_flight_key(&p.frame)
                    } else {
                        None
                    };
                    match ctx.transmit(p.port, p.frame) {
                        Ok(tx) => {
                            // Every send is armed: `tx_done` records when
                            // each one finished.
                            ctx.arm_completion(p.port, tx.frame);
                            self.stats.enter(Stage::Transmit);
                            self.stats.forwarded += 1;
                            if let Some(key) = key {
                                ctx.flight_record(key, HopKind::Inject);
                            }
                        }
                        // A planned send into a downed or missing link is
                        // a counted loss, so conservation checks balance.
                        Err(SimError::LinkDown) => self.stats.drop(DropReason::LinkDown),
                        Err(_) => self.stats.drop(DropReason::NoSuchPort),
                    }
                }
                if self.next < self.plan.len() {
                    ctx.schedule_at(self.plan[self.next].at, KEY_SEND);
                }
            }
            Event::TxDone { .. } => self.tx_done.push(ctx.now()),
            Event::FrameAborted { frame, .. } => {
                // A frame announced earlier never fully arrived: it is
                // not a reception.
                let before = self.received.len();
                self.received.retain(|r| r.frame_id != frame);
                self.aborted += (before - self.received.len()) as u64;
            }
            _ => {}
        }
    }

    fn node_stats(&self) -> Option<&dyn sirpent_sim::stats::NodeStats> {
        Some(&self.stats)
    }

    fn publish_telemetry(
        &self,
        reg: &mut sirpent_telemetry::Registry,
    ) -> Result<(), sirpent_telemetry::RegistryError> {
        use sirpent_telemetry::names;
        self.stats.publish_telemetry(reg)?;
        reg.publish_count(names::HOST_INJECTED_TOTAL, self.stats.forwarded)?;
        reg.publish_count(names::HOST_DELIVERED_TOTAL, self.stats.local)?;
        Ok(())
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
    use sirpent_sim::{SimDuration, Simulator};

    #[test]
    fn plans_fire_in_order() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(ScriptedHost::new()));
        let b = sim.add_node(Box::new(ScriptedHost::new()));
        sim.p2p(a, 0, b, 0, 10_000_000, SimDuration::ZERO);
        {
            let h = sim.node_mut::<ScriptedHost>(a);
            h.plan(SimTime(2_000), 0, vec![2]);
            h.plan(SimTime(1_000), 0, vec![1]);
            h.plan(SimTime(3_000), 0, vec![3]);
        }
        ScriptedHost::start(&mut sim, a);
        sim.run(100);
        let rx = &sim.node::<ScriptedHost>(b).received;
        assert_eq!(rx.len(), 3);
        assert_eq!(rx[0].frame.to_vec(), vec![1]);
        assert_eq!(rx[1].frame.to_vec(), vec![2]);
        assert_eq!(rx[2].frame.to_vec(), vec![3]);
        assert_eq!(sim.node::<ScriptedHost>(a).tx_done.len(), 3);
    }

    #[test]
    fn mac_filter_ignores_foreign_frames() {
        let mut sim = Simulator::new(2);
        let a = sim.add_node(Box::new(ScriptedHost::new()));
        let b = sim.add_node(Box::new(ScriptedHost::new()));
        let c = sim.add_node(Box::new(ScriptedHost::new()));
        let bus = sim.add_channel(10_000_000, SimDuration::ZERO);
        sim.attach(bus, a, 0);
        sim.attach(bus, b, 0);
        sim.attach(bus, c, 0);
        let mac_b = ethernet::Address::from_index(2);
        let mac_c = ethernet::Address::from_index(3);
        sim.node_mut::<ScriptedHost>(b).mac = Some(mac_b);
        sim.node_mut::<ScriptedHost>(c).mac = Some(mac_c);
        let runt = sirpent_wire::ipish::Datagram::from_parts(&[7], Default::default());
        let frame =
            LinkFrame::Ipish(runt).into_ethernet_frame(ethernet::Address::from_index(1), mac_b);
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime::ZERO, 0, frame);
        ScriptedHost::start(&mut sim, a);
        sim.run(100);
        assert_eq!(sim.node::<ScriptedHost>(b).received.len(), 1);
        assert_eq!(sim.node::<ScriptedHost>(c).received.len(), 0);
        assert_eq!(sim.node::<ScriptedHost>(c).filtered, 1);
    }
}
