//! The concatenated-virtual-circuit switch — the paper's second baseline
//! (§1, X.75 style).
//!
//! "The CVC approach requires a circuit setup between endpoints before
//! communication can take place, introducing a full roundtrip delay. It
//! also requires a significant amount of state in the gateways to
//! maintain connection state. (However, the circuit provides a basis for
//! access control, accounting, resource reservation and efficient
//! addressing.)"
//!
//! The switch holds a per-link VC table; a `Setup` walks the routing
//! table hop by hop allocating `(port, vci) → (port, vci)` mappings (and
//! optionally reserving bandwidth); `Data` packets then carry only a
//! 3-byte header. Both the setup round trip and the state growth are the
//! quantities E10 measures.
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
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use sirpent_sim::stats::{DropReason, PipelineStats, Stage};
use sirpent_sim::{Context, Event, Node, SimDuration, SimTime};
use sirpent_telemetry::HopKind;
use sirpent_wire::cvc::{Message, Vci};

use crate::dataplane::{Discipline, Held, OutputPort, Port, PortSet, Queued};
use crate::link::LinkFrame;

/// Routing entry: flat destination → output port (0 = this switch is the
/// destination endpoint's attachment; deliver locally).
#[derive(Debug, Clone, Copy)]
pub struct CvcRoute {
    /// Destination address (exact match on the flat 32-bit space).
    pub dest: u32,
    /// Output port.
    pub out_port: u8,
}

/// Switch configuration.
pub struct CvcConfig {
    /// Per-message processing delay (VC switching is cheap: a table
    /// index, no per-packet header rewrite).
    pub process_delay: SimDuration,
    /// Setup-message processing delay (route lookup + state allocation —
    /// much heavier than data forwarding).
    pub setup_delay: SimDuration,
    /// Routing table.
    pub routes: Vec<CvcRoute>,
    /// Hard cap on circuits (the switch-state limit).
    pub max_circuits: usize,
    /// Ports and their line rates are discovered from the simulator; the
    /// reservable fraction of each line.
    pub reservable_fraction: f64,
}

/// Per-direction circuit mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leg {
    port: u8,
    vci: Vci,
}

/// Counters: the shared staged-pipeline core plus the circuit-switching
/// extras. `Deref`s to [`PipelineStats`]; data messages forwarded on a
/// circuit count in `forwarded`, with their handling delay in
/// `forward_delay`.
#[derive(Debug, Default)]
pub struct CvcStats {
    /// The shared per-stage / per-drop-reason pipeline counters.
    pub pipeline: PipelineStats,
    /// Setup messages processed.
    pub setups: u64,
    /// Setups rejected (no route / state / bandwidth).
    pub rejects: u64,
    /// Circuits currently open.
    pub circuits_active: usize,
    /// Peak simultaneous circuits.
    pub circuits_peak: usize,
}

impl Deref for CvcStats {
    type Target = PipelineStats;

    fn deref(&self) -> &PipelineStats {
        &self.pipeline
    }
}

impl DerefMut for CvcStats {
    fn deref_mut(&mut self) -> &mut PipelineStats {
        &mut self.pipeline
    }
}

/// Flight-recorder identity of a CVC message: the first 8 little-endian
/// bytes of a `Data` payload — the simtest marker convention. Control
/// messages carry no workload payload and are never traced. Returns
/// `None` (never panics) for short payloads.
pub(crate) fn cvc_flight_key(msg: &Message) -> Option<u64> {
    match msg {
        Message::Data { payload, .. } => {
            let head: [u8; 8] = payload.get(..8)?.try_into().ok()?;
            Some(u64::from_le_bytes(head))
        }
        _ => None,
    }
}

/// A message held until its store-and-forward instant.
struct Arrival {
    port: u8,
    msg: Message,
    first_bit: SimTime,
}

/// The CVC switch node.
pub struct CvcSwitch {
    /// Configuration (public so harnesses can adjust caps between runs).
    pub cfg: CvcConfig,
    /// (in port, in vci) → (out port, out vci); both directions stored.
    table: BTreeMap<(u8, Vci), Leg>,
    /// Next VCI to allocate per output port.
    next_vci: BTreeMap<u8, Vci>,
    /// Reserved bandwidth per port.
    reserved_bps: BTreeMap<u8, u64>,
    /// Reservation carried by each circuit leg, for release on teardown.
    leg_reserve: BTreeMap<(u8, Vci), u64>,
    held: Held<Arrival>,
    /// Output schedulers, created on first use (ports are discovered
    /// from traffic). Unbounded FIFO, as circuit admission — not
    /// drop-tail — is the CVC overload control.
    ports: PortSet<()>,
    /// Data delivered locally (this switch is the endpoint attachment):
    /// (time, vci, payload).
    pub local_delivered: Vec<(SimTime, Vci, sirpent_wire::buf::PacketBuf)>,
    /// Accept/Reject messages delivered locally.
    pub local_control: Vec<(SimTime, Message)>,
    /// Counters.
    pub stats: CvcStats,
}

impl CvcSwitch {
    /// Build the switch.
    pub fn new(cfg: CvcConfig) -> CvcSwitch {
        CvcSwitch {
            cfg,
            table: BTreeMap::new(),
            next_vci: BTreeMap::new(),
            reserved_bps: BTreeMap::new(),
            leg_reserve: BTreeMap::new(),
            held: Held::new(),
            ports: PortSet::new(),
            local_delivered: Vec::new(),
            local_control: Vec::new(),
            stats: CvcStats::default(),
        }
    }

    /// Bytes of switch state currently held: two table entries per
    /// circuit leg plus reservations — §1's "significant amount of state
    /// in the gateways".
    pub fn state_bytes(&self) -> usize {
        // Each mapping entry ≈ key (3) + value (3); reservations 12 each.
        self.table.len() * 6 + self.leg_reserve.len() * 12
    }

    /// Number of open circuits (pairs of mappings).
    pub fn circuits(&self) -> usize {
        self.table.len() / 2
    }

    /// Total frames sitting in output queues across all ports (the chaos
    /// harness's in-system conservation term).
    pub fn queued_frames(&self) -> u64 {
        self.ports.queued_frames()
    }

    fn alloc_vci(&mut self, port: u8) -> Vci {
        let v = self.next_vci.entry(port).or_insert(1);
        let got = *v;
        *v = v.wrapping_add(1).max(1);
        got
    }

    fn route(&self, dest: u32) -> Option<u8> {
        self.cfg
            .routes
            .iter()
            .find(|r| r.dest == dest)
            .map(|r| r.out_port)
    }

    fn send(&mut self, ctx: &mut Context<'_>, port: u8, msg: Message) {
        let now = ctx.now();
        let flight_key = if ctx.flight_enabled() {
            cvc_flight_key(&msg)
        } else {
            None
        };
        let frame = LinkFrame::Cvc(Ok(msg)).into_p2p_frame();
        let CvcSwitch { ports, stats, .. } = self;
        if !ports.contains_key(&port) {
            let sched = OutputPort::new(port, Discipline::Fifo, usize::MAX);
            ports.insert(port, Port { cfg: (), sched });
        }
        // `record: None` — forwarding is accounted at handle time (the
        // circuit decision), not at transmit start.
        let mut q = Queued::fifo(frame, now, None);
        q.flight_key = flight_key;
        if let Some(p) = ports.get_mut(&port) {
            p.sched.push(ctx, q, stats);
        }
        ports.serve(ctx, port, &mut (), stats);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, in_port: u8, msg: Message, first_bit: SimTime) {
        // The decision instant: first-bit arrival → now spans full
        // reception plus the per-message processing delay.
        self.stats
            .pipeline
            .parse_latency_ns
            .record((ctx.now() - first_bit).as_nanos());
        let flight_key = if ctx.flight_enabled() {
            cvc_flight_key(&msg)
        } else {
            None
        };
        if let Some(key) = flight_key {
            ctx.flight_record(key, HopKind::SwitchDecision);
        }
        self.stats.enter(Stage::Route);
        match msg {
            Message::Setup { vci, dest, reserve } => {
                self.stats.setups += 1;
                let Some(out_port) = self.route(dest) else {
                    self.stats.rejects += 1;
                    self.send(ctx, in_port, Message::Reject { vci, reason: 1 });
                    return;
                };
                if self.circuits() >= self.cfg.max_circuits {
                    self.stats.rejects += 1;
                    self.send(ctx, in_port, Message::Reject { vci, reason: 2 });
                    return;
                }
                // Bandwidth reservation on the outgoing link.
                if reserve > 0 && out_port != 0 {
                    let line = ctx.channel_rate(out_port).unwrap_or(0);
                    let cap = (line as f64 * self.cfg.reservable_fraction) as u64;
                    let used = *self.reserved_bps.get(&out_port).unwrap_or(&0);
                    if used + reserve as u64 > cap {
                        self.stats.rejects += 1;
                        self.send(ctx, in_port, Message::Reject { vci, reason: 3 });
                        return;
                    }
                    *self.reserved_bps.entry(out_port).or_insert(0) += reserve as u64;
                }
                if out_port == 0 {
                    // We are the destination attachment: open the circuit
                    // and confirm back toward the caller.
                    self.table.insert((in_port, vci), Leg { port: 0, vci });
                    self.table.insert((0, vci), Leg { port: in_port, vci });
                    self.bump_peak();
                    self.send(ctx, in_port, Message::Accept { vci });
                    return;
                }
                let out_vci = self.alloc_vci(out_port);
                self.table.insert(
                    (in_port, vci),
                    Leg {
                        port: out_port,
                        vci: out_vci,
                    },
                );
                self.table
                    .insert((out_port, out_vci), Leg { port: in_port, vci });
                if reserve > 0 {
                    self.leg_reserve.insert((out_port, out_vci), reserve as u64);
                }
                self.bump_peak();
                self.send(
                    ctx,
                    out_port,
                    Message::Setup {
                        vci: out_vci,
                        dest,
                        reserve,
                    },
                );
            }
            Message::Accept { vci } => {
                // Travels back along the reverse mapping.
                match self.table.get(&(in_port, vci)).copied() {
                    Some(back) if back.port != 0 => {
                        self.send(ctx, back.port, Message::Accept { vci: back.vci })
                    }
                    _ => self
                        .local_control
                        .push((ctx.now(), Message::Accept { vci })),
                }
            }
            Message::Reject { vci, reason } => match self.table.get(&(in_port, vci)).copied() {
                Some(back) if back.port != 0 => {
                    self.table.remove(&(in_port, vci));
                    self.table.remove(&(back.port, back.vci));
                    self.send(
                        ctx,
                        back.port,
                        Message::Reject {
                            vci: back.vci,
                            reason,
                        },
                    );
                }
                _ => self
                    .local_control
                    .push((ctx.now(), Message::Reject { vci, reason })),
            },
            Message::Teardown { vci } => {
                if let Some(fwd) = self.table.remove(&(in_port, vci)) {
                    self.table.remove(&(fwd.port, fwd.vci));
                    if let Some(r) = self.leg_reserve.remove(&(fwd.port, fwd.vci)) {
                        if let Some(u) = self.reserved_bps.get_mut(&fwd.port) {
                            *u = u.saturating_sub(r);
                        }
                    }
                    if fwd.port != 0 {
                        self.send(ctx, fwd.port, Message::Teardown { vci: fwd.vci });
                    }
                }
                self.stats.circuits_active = self.circuits();
            }
            Message::Data { vci, payload } => match self.table.get(&(in_port, vci)).copied() {
                Some(fwd) if fwd.port != 0 => {
                    self.stats.forwarded += 1;
                    let now = ctx.now();
                    self.stats.forward_delay.record_duration(now - first_bit);
                    self.send(
                        ctx,
                        fwd.port,
                        Message::Data {
                            vci: fwd.vci,
                            payload,
                        },
                    );
                }
                Some(fwd) => {
                    if let Some(key) = flight_key {
                        ctx.flight_record(key, HopKind::Delivered);
                    }
                    self.local_delivered.push((ctx.now(), fwd.vci, payload));
                }
                None => {
                    // Data on a circuit this switch never set up: the
                    // paper's VC model has no way to route it.
                    self.stats.drop(DropReason::UnknownCircuit);
                    if let Some(key) = flight_key {
                        ctx.flight_record(key, HopKind::Drop(DropReason::UnknownCircuit.label()));
                    }
                }
            },
        }
        self.stats.circuits_active = self.circuits();
    }

    fn bump_peak(&mut self) {
        self.stats.circuits_peak = self.stats.circuits_peak.max(self.circuits());
    }
}

impl Node for CvcSwitch {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                // Undecodable input (foreign or corrupted bytes) is a
                // counted loss: conservation checks must see every frame
                // either delivered or in exactly one drop counter.
                let Ok(LinkFrame::Cvc(Ok(msg))) = LinkFrame::from_p2p_frame(&fe.frame.payload)
                else {
                    self.stats.drop(DropReason::BadFrame);
                    return;
                };
                self.stats.enter(Stage::Parse);
                if ctx.flight_enabled() {
                    if let Some(k) = cvc_flight_key(&msg) {
                        ctx.flight_record_at(fe.first_bit, k, HopKind::ArrivalFirstBit);
                    }
                }
                let delay = match msg {
                    Message::Setup { .. } => self.cfg.setup_delay,
                    _ => self.cfg.process_delay,
                };
                let arrival = Arrival {
                    port: fe.port,
                    msg,
                    first_bit: fe.first_bit,
                };
                // Store-and-forward discipline.
                self.held
                    .hold(ctx, fe.last_bit + delay, Some(fe.frame.id), arrival);
            }
            Event::TxDone { port, frame } | Event::TxAborted { port, frame } => {
                let stats = &mut self.stats.pipeline;
                self.ports.on_tx_end(ctx, port, frame, &mut (), stats);
            }
            Event::Timer { key } => {
                if let Some(a) = self.held.take(key) {
                    self.handle(ctx, a.port, a.msg, a.first_bit);
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

    /// Crash/restart state-loss contract (chaos layer): ALL circuit
    /// state is soft and lost — the VC table, VCI allocators,
    /// reservations, held arrivals, and output queues (queued frames
    /// accounted as `RouterDown`). Endpoints must re-setup; this is
    /// exactly the CVC fragility §1 of the paper contrasts against
    /// source routing.
    fn on_restart(&mut self) {
        self.table.clear();
        self.next_vci.clear();
        self.reserved_bps.clear();
        self.leg_reserve.clear();
        self.held.crash(&mut self.stats.pipeline);
        self.stats.circuits_active = 0;
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
    use sirpent_sim::{NodeId, Simulator};
    use sirpent_wire::buf::PacketBuf;

    const MBPS_10: u64 = 10_000_000;
    const DEST: u32 = 0xC0A80202;

    /// host A — switch1 — switch2 — host B(dest attach at switch2 port 0…
    /// actually local attachment is port 0 of switch2).
    fn chain() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Box::new(ScriptedHost::new()));
        let s1 = sim.add_node(Box::new(CvcSwitch::new(CvcConfig {
            process_delay: SimDuration::from_micros(5),
            setup_delay: SimDuration::from_micros(200),
            routes: vec![CvcRoute {
                dest: DEST,
                out_port: 2,
            }],
            max_circuits: 100,
            reservable_fraction: 0.8,
        })));
        let s2 = sim.add_node(Box::new(CvcSwitch::new(CvcConfig {
            process_delay: SimDuration::from_micros(5),
            setup_delay: SimDuration::from_micros(200),
            routes: vec![CvcRoute {
                dest: DEST,
                out_port: 0, // local attachment
            }],
            max_circuits: 100,
            reservable_fraction: 0.8,
        })));
        sim.p2p(a, 0, s1, 1, MBPS_10, SimDuration::from_micros(10));
        sim.p2p(s1, 2, s2, 1, MBPS_10, SimDuration::from_micros(10));
        (sim, a, s1, s2)
    }

    #[test]
    fn setup_accept_data_teardown_lifecycle() {
        let (mut sim, a, s1, s2) = chain();
        let setup = Message::Setup {
            vci: 9,
            dest: DEST,
            reserve: 0,
        };
        sim.node_mut::<ScriptedHost>(a).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Cvc(Ok(setup)).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, a);
        sim.run(10_000);

        // Host got the Accept (full round trip).
        let rx = sim.node::<ScriptedHost>(a).received_p2p();
        assert_eq!(rx.len(), 1);
        let LinkFrame::Cvc(Ok(m)) = &rx[0].1 else {
            panic!()
        };
        assert_eq!(m, &Message::Accept { vci: 9 });
        let accept_time = rx[0].0;
        // Setup RTT ≥ 2 hops each way + 2 × setup_delay ≈ > 400 µs.
        assert!(accept_time > SimTime(400_000), "accept at {accept_time}");
        assert_eq!(sim.node::<CvcSwitch>(s1).circuits(), 1);
        assert_eq!(sim.node::<CvcSwitch>(s2).circuits(), 1);

        // Now send data and tear down.
        let t0 = sim.now();
        sim.node_mut::<ScriptedHost>(a).plan(
            t0,
            0,
            LinkFrame::Cvc(Ok(Message::Data {
                vci: 9,
                payload: PacketBuf::from(b"on-circuit"),
            }))
            .into_p2p_frame(),
        );
        sim.node_mut::<ScriptedHost>(a).plan(
            t0 + SimDuration::from_millis(1),
            0,
            LinkFrame::Cvc(Ok(Message::Teardown { vci: 9 })).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, a);
        sim.run(10_000);

        let s2ref = sim.node::<CvcSwitch>(s2);
        assert_eq!(s2ref.local_delivered.len(), 1);
        assert_eq!(s2ref.local_delivered[0].2.as_slice(), b"on-circuit");
        assert_eq!(s2ref.circuits(), 0, "torn down");
        assert_eq!(sim.node::<CvcSwitch>(s1).circuits(), 0);
        assert_eq!(sim.node::<CvcSwitch>(s1).stats.circuits_peak, 1);
    }

    #[test]
    fn reject_without_route() {
        let (mut sim, a, s1, _s2) = chain();
        let setup = Message::Setup {
            vci: 4,
            dest: 0xDEAD,
            reserve: 0,
        };
        sim.node_mut::<ScriptedHost>(a).plan(
            SimTime::ZERO,
            0,
            LinkFrame::Cvc(Ok(setup)).into_p2p_frame(),
        );
        ScriptedHost::start(&mut sim, a);
        sim.run(10_000);
        let rx = sim.node::<ScriptedHost>(a).received_p2p();
        assert_eq!(rx.len(), 1);
        let LinkFrame::Cvc(Ok(m)) = &rx[0].1 else {
            panic!()
        };
        assert!(matches!(m, Message::Reject { vci: 4, .. }));
        assert_eq!(sim.node::<CvcSwitch>(s1).stats.rejects, 1);
    }

    #[test]
    fn circuit_cap_enforced() {
        let (mut sim, a, s1, _s2) = chain();
        {
            let sw = sim.node_mut::<CvcSwitch>(s1);
            sw.cfg.max_circuits = 2;
        }
        for i in 0..4u16 {
            let setup = Message::Setup {
                vci: 100 + i,
                dest: DEST,
                reserve: 0,
            };
            sim.node_mut::<ScriptedHost>(a).plan(
                SimTime(i as u64 * 2_000_000),
                0,
                LinkFrame::Cvc(Ok(setup)).into_p2p_frame(),
            );
        }
        ScriptedHost::start(&mut sim, a);
        sim.run(100_000);
        let sw = sim.node::<CvcSwitch>(s1);
        assert_eq!(sw.circuits(), 2);
        assert_eq!(sw.stats.rejects, 2);
    }

    #[test]
    fn bandwidth_reservation_rejects_oversubscription() {
        let (mut sim, a, s1, _s2) = chain();
        // Line is 10 Mb/s, reservable 80% = 8 Mb/s. Two 5 Mb/s circuits
        // cannot both fit.
        for (i, vci) in [(0u64, 11u16), (1, 12)] {
            let setup = Message::Setup {
                vci,
                dest: DEST,
                reserve: 5_000_000,
            };
            sim.node_mut::<ScriptedHost>(a).plan(
                SimTime(i * 2_000_000),
                0,
                LinkFrame::Cvc(Ok(setup)).into_p2p_frame(),
            );
        }
        ScriptedHost::start(&mut sim, a);
        sim.run(100_000);
        let sw = sim.node::<CvcSwitch>(s1);
        assert_eq!(sw.circuits(), 1, "only one reservation fits");
        assert_eq!(sw.stats.rejects, 1);
    }

    #[test]
    fn state_grows_with_circuits() {
        let (mut sim, a, s1, _s2) = chain();
        for i in 0..8u16 {
            let setup = Message::Setup {
                vci: 50 + i,
                dest: DEST,
                reserve: 0,
            };
            sim.node_mut::<ScriptedHost>(a).plan(
                SimTime(i as u64 * 1_000_000),
                0,
                LinkFrame::Cvc(Ok(setup)).into_p2p_frame(),
            );
        }
        ScriptedHost::start(&mut sim, a);
        sim.run(100_000);
        let sw = sim.node::<CvcSwitch>(s1);
        assert_eq!(sw.circuits(), 8);
        assert!(sw.state_bytes() >= 8 * 2 * 6);
    }
}
