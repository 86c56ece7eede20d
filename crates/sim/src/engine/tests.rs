//! Engine behaviour tests: frame timing, aborts, buses, fault injection
//! and the chaos layer, driven through the public `Simulator` surface.

use std::any::Any;

use sirpent_telemetry::{HopEvent, HopKind};
use sirpent_wire::buf::FrameBuf;

use super::*;
use crate::chaos::{ChaosAction, ChaosEvent, FaultSchedule};
use crate::stats::DropReason;
use crate::time::{SimDuration, SimTime};

/// A test node that records everything it sees and can be scripted to
/// transmit on timers.
#[derive(Default)]
struct Probe {
    frames: Vec<(SimTime, SimTime, Vec<u8>, bool)>,
    aborted: Vec<(SimTime, usize)>,
    tx_aborted: Vec<(SimTime, FrameId)>,
    tx_done: Vec<SimTime>,
    timers: Vec<(SimTime, u64)>,
    send_on_timer: Option<(u8, Vec<u8>)>,
    abort_on_timer: Option<(u64, u8)>,
    restarts: u32,
}

impl Node for Probe {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => self.frames.push((
                fe.first_bit,
                fe.last_bit,
                fe.frame.payload.to_vec(),
                fe.corrupted,
            )),
            Event::FrameAborted { bytes_received, .. } => {
                self.aborted.push((ctx.now(), bytes_received))
            }
            Event::TxDone { .. } => self.tx_done.push(ctx.now()),
            Event::TxAborted { frame, .. } => self.tx_aborted.push((ctx.now(), frame)),
            Event::Timer { key } => {
                self.timers.push((ctx.now(), key));
                if let Some((abort_key, port)) = self.abort_on_timer {
                    if key == abort_key {
                        ctx.abort_current_tx(port).unwrap();
                        return;
                    }
                }
                if let Some((port, bytes)) = self.send_on_timer.clone() {
                    ctx.transmit(port, bytes).unwrap();
                }
            }
        }
    }
    fn on_restart(&mut self) {
        self.restarts += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const MBPS_10: u64 = 10_000_000;

#[test]
fn frame_timing_is_byte_accurate() {
    let mut sim = Simulator::new(1);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(5));
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0xAA; 1000]));
    sim.kick(SimTime::ZERO, a, 1);
    sim.run(1000);

    // 1000 bytes at 10 Mb/s = 800 µs; prop 5 µs.
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 1);
    let (first, last, ref bytes, corrupted) = probe_b.frames[0];
    assert_eq!(first, SimTime(5_000));
    assert_eq!(last, SimTime(805_000));
    assert_eq!(bytes.len(), 1000);
    assert!(!corrupted);
    // Sender's TxDone at 800 µs (no prop).
    assert_eq!(sim.node::<Probe>(a).tx_done, vec![SimTime(800_000)]);
}

#[test]
fn byte_arrival_math() {
    let fe = FrameEvent {
        port: 0,
        frame: Frame {
            id: FrameId(0),
            payload: FrameBuf::from(vec![0; 100]),
        },
        first_bit: SimTime(1000),
        last_bit: SimTime(2000),
        rate_bps: 8_000_000_000, // 1 byte/ns
        corrupted: false,
    };
    assert_eq!(fe.byte_arrival(0), SimTime(1000));
    assert_eq!(fe.byte_arrival(18), SimTime(1018));
}

#[test]
fn busy_channel_serializes_fifo() {
    let mut sim = Simulator::new(2);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    // Two back-to-back transmissions queued at the same instant.
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs each
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime::ZERO, a, 2);
    sim.run(1000);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 2);
    assert_eq!(probe_b.frames[0].0, SimTime::ZERO);
    assert_eq!(probe_b.frames[1].0, SimTime(100_000), "second waits");
}

#[test]
fn abort_notifies_receiver_before_tail() {
    let mut sim = Simulator::new(3);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(1));
    {
        let pa = sim.node_mut::<Probe>(a);
        pa.send_on_timer = Some((0, vec![9; 1250])); // 1 ms tx time
        pa.abort_on_timer = Some((99, 0));
    }
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime(400_000), a, 99); // abort 40% through
    sim.run(1000);

    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 1, "header already announced");
    let tail = probe_b.frames[0].1;
    assert_eq!(probe_b.aborted.len(), 1);
    let (abort_seen, bytes_rx) = probe_b.aborted[0];
    assert!(abort_seen < tail, "abort must precede the phantom tail");
    // 400 µs at 10 Mb/s = 500 bytes.
    assert_eq!(bytes_rx, 500);
    // Sender never gets a TxDone for the aborted frame.
    assert!(sim.node::<Probe>(a).tx_done.is_empty());
}

#[test]
fn abort_frees_the_channel() {
    let mut sim = Simulator::new(4);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    {
        let pa = sim.node_mut::<Probe>(a);
        pa.send_on_timer = Some((0, vec![7; 1250]));
        pa.abort_on_timer = Some((99, 0));
    }
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime(100_000), a, 99);
    // A new transmission right after the abort goes out immediately.
    sim.kick(SimTime(100_000), a, 2);
    sim.run(1000);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 2);
    assert_eq!(probe_b.frames[1].0, SimTime(100_000));
    assert_eq!(sim.channel_stats(ab).aborts, 1);
}

#[test]
fn shared_bus_broadcasts_to_all_other_taps() {
    let mut sim = Simulator::new(5);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let c = sim.add_node(Box::<Probe>::default());
    let bus = sim.add_channel(MBPS_10, SimDuration::from_micros(2));
    sim.attach(bus, a, 0);
    sim.attach(bus, b, 0);
    sim.attach(bus, c, 0);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![3; 100]));
    sim.kick(SimTime::ZERO, a, 1);
    sim.run(100);
    assert_eq!(sim.node::<Probe>(b).frames.len(), 1);
    assert_eq!(sim.node::<Probe>(c).frames.len(), 1);
    assert_eq!(sim.node::<Probe>(a).frames.len(), 0, "no self-delivery");
}

#[test]
fn bus_fanout_shares_packet_body() {
    use sirpent_wire::buf::PacketBuf;

    #[derive(Default)]
    struct Cap {
        got: Vec<FrameBuf>,
    }
    impl Node for Cap {
        fn on_event(&mut self, _ctx: &mut Context<'_>, ev: Event) {
            if let Event::Frame(fe) = ev {
                self.got.push(fe.frame.payload);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    struct Sender(FrameBuf);
    impl Node for Sender {
        fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
            if matches!(ev, Event::Timer { .. }) {
                ctx.transmit(0, self.0.clone()).unwrap();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let body = PacketBuf::from(vec![0xEE; 512]);
    let frame = FrameBuf::new(vec![1, 0], body.clone());
    let mut sim = Simulator::new(12);
    let a = sim.add_node(Box::new(Sender(frame)));
    let b = sim.add_node(Box::<Cap>::default());
    let c = sim.add_node(Box::<Cap>::default());
    let bus = sim.add_channel(MBPS_10, SimDuration::ZERO);
    sim.attach(bus, a, 0);
    sim.attach(bus, b, 0);
    sim.attach(bus, c, 0);
    sim.kick(SimTime::ZERO, a, 1);
    sim.run(100);
    for id in [b, c] {
        let cap = sim.node::<Cap>(id);
        assert_eq!(cap.got.len(), 1);
        // The delivered copy shares the sender's body store: the
        // engine fanned out without copying the packet.
        assert!(cap.got[0].body().shares_store_with(&body));
    }
}

#[test]
fn fault_injection_drops_and_corrupts() {
    let mut sim = Simulator::new(6);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.set_faults(
        ab,
        FaultConfig {
            drop_prob: 0.3,
            corrupt_prob: 0.3,
        },
    );
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0x55; 64]));
    for i in 0..200 {
        sim.kick(SimTime(i * 1_000_000), a, 1);
    }
    sim.run(10_000);
    let st = sim.channel_stats(ab);
    assert!(st.drops > 20, "drops={}", st.drops);
    assert!(st.corrupted > 20, "corrupted={}", st.corrupted);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len() as u64, 200 - st.drops);
    let corrupt_seen = probe_b.frames.iter().filter(|f| f.3).count() as u64;
    assert_eq!(corrupt_seen, st.corrupted);
    // Corruption really flips a byte.
    for f in probe_b.frames.iter().filter(|f| f.3) {
        assert_ne!(f.2, vec![0x55; 64]);
    }
}

#[test]
fn determinism_same_seed_same_run() {
    fn run(seed: u64) -> Vec<(SimTime, usize)> {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(3));
        sim.set_faults(
            ab,
            FaultConfig {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
            },
        );
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 99]));
        for i in 0..50 {
            sim.kick(SimTime(i * 500_000), a, 1);
        }
        sim.run(10_000);
        sim.node::<Probe>(b)
            .frames
            .iter()
            .map(|f| (f.0, f.2.len()))
            .collect()
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds diverge");
}

#[test]
fn utilization_accounting() {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime(500_000), a, 1);
    sim.run_until(SimTime(1_000_000));
    let st = sim.channel_stats(ab);
    assert_eq!(st.frames, 2);
    assert_eq!(st.busy, SimDuration::from_micros(200));
    let u = st.utilization(SimDuration::from_millis(1));
    assert!((u - 0.2).abs() < 1e-9, "u={u}");
}

#[test]
fn run_until_advances_clock_even_when_idle() {
    let mut sim = Simulator::new(8);
    sim.run_until(SimTime(5_000_000));
    assert_eq!(sim.now(), SimTime(5_000_000));
}

#[test]
#[should_panic(expected = "already attached")]
fn double_attach_panics() {
    let mut sim = Simulator::new(9);
    let a = sim.add_node(Box::<Probe>::default());
    let ch1 = sim.add_channel(MBPS_10, SimDuration::ZERO);
    let ch2 = sim.add_channel(MBPS_10, SimDuration::ZERO);
    sim.attach(ch1, a, 0);
    sim.attach(ch2, a, 0);
}

#[test]
fn abort_without_tx_errors() {
    struct Aborter(Option<SimError>);
    impl Node for Aborter {
        fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
            if matches!(ev, Event::Timer { .. }) {
                self.0 = ctx.abort_current_tx(0).err();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulator::new(10);
    let a = sim.add_node(Box::new(Aborter(None)));
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.kick(SimTime::ZERO, a, 0);
    sim.run(10);
    assert_eq!(sim.node::<Aborter>(a).0, Some(SimError::NothingToAbort));
}

// ----- chaos layer ---------------------------------------------------

fn schedule(events: Vec<(u64, ChaosAction)>) -> FaultSchedule {
    FaultSchedule::new(
        events
            .into_iter()
            .map(|(at, action)| ChaosEvent {
                at: SimTime(at),
                action,
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn link_down_aborts_midflight_before_tail() {
    let mut sim = Simulator::new(20);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(1));
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![9; 1250])); // 1 ms
    sim.kick(SimTime::ZERO, a, 1);
    sim.install_schedule(schedule(vec![(400_000, ChaosAction::LinkDown { ch: ab })]));
    sim.run(1000);

    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 1, "header already announced");
    let tail = probe_b.frames[0].1;
    assert_eq!(probe_b.aborted.len(), 1);
    let (abort_seen, bytes_rx) = probe_b.aborted[0];
    assert!(abort_seen < tail, "abort must precede the phantom tail");
    assert_eq!(bytes_rx, 500, "400 µs at 10 Mb/s");
    let probe_a = sim.node::<Probe>(a);
    assert!(probe_a.tx_done.is_empty(), "no TxDone for a killed frame");
    assert_eq!(probe_a.tx_aborted.len(), 1);
    assert_eq!(probe_a.tx_aborted[0].0, SimTime(400_000));
    assert_eq!(sim.chaos_stats().drops[DropReason::LinkDown], 1);
    assert!(!sim.is_link_up(ab));
}

#[test]
fn link_down_cancels_queued_and_link_up_restores() {
    let mut sim = Simulator::new(21);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 125])); // 100 µs
                                                                      // Two back-to-back at t=0: the first is mid-flight at 50 µs, the
                                                                      // second still queued behind it.
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime::ZERO, a, 2);
    // A third send after the link comes back.
    sim.kick(SimTime(400_000), a, 3);
    sim.install_schedule(schedule(vec![
        (50_000, ChaosAction::LinkDown { ch: ab }),
        (300_000, ChaosAction::LinkUp { ch: ab }),
    ]));
    sim.run(1000);

    let probe_b = sim.node::<Probe>(b);
    // First frame: announced, then aborted. Second: cancelled before
    // its first bit — the receiver never hears of it. Third: clean.
    assert_eq!(probe_b.frames.len(), 2);
    assert_eq!(probe_b.aborted.len(), 1);
    assert_eq!(probe_b.frames[1].0, SimTime(400_000));
    assert_eq!(sim.chaos_stats().drops[DropReason::LinkDown], 2);
    let probe_a = sim.node::<Probe>(a);
    assert_eq!(probe_a.tx_aborted.len(), 2, "both kills notify the sender");
    assert_eq!(probe_a.tx_done.len(), 1, "only the clean frame completes");
    assert!(sim.is_link_up(ab));
}

#[test]
fn transmit_on_down_link_reports_error() {
    struct TxTry(Option<SimError>);
    impl Node for TxTry {
        fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
            if matches!(ev, Event::Timer { .. }) {
                self.0 = ctx.transmit(0, vec![1; 10]).err();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulator::new(22);
    let a = sim.add_node(Box::new(TxTry(None)));
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.install_schedule(schedule(vec![(0, ChaosAction::LinkDown { ch: ab })]));
    sim.kick(SimTime(1_000), a, 1);
    sim.run(100);
    assert_eq!(sim.node::<TxTry>(a).0, Some(SimError::LinkDown));
    assert!(sim.node::<Probe>(b).frames.is_empty());
}

#[test]
fn crash_swallows_traffic_and_restart_loses_timers() {
    let mut sim = Simulator::new(23);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![5; 125]));
    // A frame lands while b is down; a timer armed pre-crash would
    // fire after the restart.
    sim.kick(SimTime(100_000), a, 1);
    sim.kick(SimTime(150_000), b, 77);
    // After the restart a second frame goes through.
    sim.kick(SimTime(300_000), a, 2);
    sim.install_schedule(schedule(vec![
        (50_000, ChaosAction::RouterCrash { node: b }),
        (120_000, ChaosAction::RouterRestart { node: b }),
    ]));
    sim.run(1000);

    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.restarts, 1, "the restart hook ran");
    assert!(
        probe_b.timers.is_empty(),
        "pre-crash timers are lost soft state"
    );
    // The down-window frame was swallowed and accounted; the
    // post-restart frame arrived.
    assert_eq!(probe_b.frames.len(), 1);
    assert_eq!(probe_b.frames[0].0, SimTime(300_000));
    assert_eq!(sim.chaos_stats().drops[DropReason::RouterDown], 1);
    assert!(!sim.is_down(b));
}

#[test]
fn crash_kills_the_crashed_nodes_own_transmissions() {
    let mut sim = Simulator::new(24);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![8; 1250])); // 1 ms
    sim.kick(SimTime::ZERO, a, 1);
    sim.install_schedule(schedule(vec![(
        400_000,
        ChaosAction::RouterCrash { node: a },
    )]));
    sim.run(1000);
    // The sender crashed mid-transmission: the receiver must see the
    // retraction, and the loss is accounted as RouterDown.
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.aborted.len(), 1);
    assert_eq!(sim.chaos_stats().drops[DropReason::RouterDown], 1);
    assert!(sim.is_down(a));
}

#[test]
fn partition_suppresses_cross_side_delivery_only() {
    let mut sim = Simulator::new(25);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let c = sim.add_node(Box::<Probe>::default());
    let bus = sim.add_channel(MBPS_10, SimDuration::ZERO);
    sim.attach(bus, a, 0);
    sim.attach(bus, b, 0);
    sim.attach(bus, c, 0);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![3; 100]));
    sim.kick(SimTime(100_000), a, 1);
    sim.kick(SimTime(600_000), a, 2);
    sim.install_schedule(schedule(vec![
        (0, ChaosAction::PartitionStart { side_a: vec![a, b] }),
        (500_000, ChaosAction::PartitionEnd),
    ]));
    sim.run(1000);
    // During the window: same-side b hears a, far-side c does not.
    // After the window heals, everyone hears everything.
    assert_eq!(sim.node::<Probe>(b).frames.len(), 2);
    assert_eq!(sim.node::<Probe>(c).frames.len(), 1);
    assert_eq!(sim.chaos_stats().drops[DropReason::Partitioned], 1);
}

#[test]
fn duplication_window_delivers_twice() {
    let mut sim = Simulator::new(26);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![4; 50]));
    sim.kick(SimTime(100_000), a, 1);
    sim.kick(SimTime(600_000), a, 2);
    sim.install_schedule(schedule(vec![
        (0, ChaosAction::DuplicateStart { ch: ab, prob: 1.0 }),
        (500_000, ChaosAction::DuplicateEnd { ch: ab }),
    ]));
    sim.run(1000);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 3, "one doubled + one clean");
    assert_eq!(probe_b.frames[0].2, probe_b.frames[1].2);
    assert_eq!(sim.channel_stats(ab).duplicated, 1);
}

#[test]
fn jitter_keeps_abort_before_tail() {
    let mut sim = Simulator::new(27);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(2));
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![6; 1250])); // 1 ms
    sim.kick(SimTime(100_000), a, 1);
    sim.install_schedule(schedule(vec![
        (
            0,
            ChaosAction::JitterStart {
                ch: ab,
                max_extra: SimDuration::from_micros(50),
            },
        ),
        (500_000, ChaosAction::LinkDown { ch: ab }),
    ]));
    sim.run(1000);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 1);
    assert_eq!(probe_b.aborted.len(), 1);
    // The abort rides the same jittered path as the frame: it still
    // lands strictly before the phantom tail.
    assert!(probe_b.aborted[0].0 < probe_b.frames[0].1);
    assert!(probe_b.frames[0].0 >= SimTime(102_000), "prop + jitter ≥ 0");
}

#[test]
fn error_burst_flips_a_contiguous_run() {
    let mut sim = Simulator::new(28);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![0x55; 64]));
    sim.kick(SimTime(100_000), a, 1);
    sim.install_schedule(schedule(vec![(
        0,
        ChaosAction::ErrorBurstStart {
            ch: ab,
            prob: 1.0,
            max_run: 4,
        },
    )]));
    sim.run(1000);
    let probe_b = sim.node::<Probe>(b);
    assert_eq!(probe_b.frames.len(), 1);
    assert!(probe_b.frames[0].3, "flagged corrupted");
    let diffs: Vec<usize> = probe_b.frames[0]
        .2
        .iter()
        .enumerate()
        .filter_map(|(i, &byte)| (byte != 0x55).then_some(i))
        .collect();
    assert!(!diffs.is_empty() && diffs.len() <= 4);
    assert_eq!(
        diffs.last().unwrap() - diffs[0] + 1,
        diffs.len(),
        "the burst is one contiguous run"
    );
    assert_eq!(sim.channel_stats(ab).corrupted, 1);
}

#[test]
fn empty_schedule_is_inert() {
    fn run(install: bool) -> Vec<(SimTime, usize)> {
        let mut sim = Simulator::new(29);
        let a = sim.add_node(Box::<Probe>::default());
        let b = sim.add_node(Box::<Probe>::default());
        let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::from_micros(3));
        sim.set_faults(
            ab,
            FaultConfig {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
            },
        );
        if install {
            sim.install_schedule(schedule(vec![]));
        }
        sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![1; 99]));
        for i in 0..50 {
            sim.kick(SimTime(i * 500_000), a, 1);
        }
        sim.run(10_000);
        sim.node::<Probe>(b)
            .frames
            .iter()
            .map(|f| (f.0, f.2.len()))
            .collect()
    }
    assert_eq!(run(false), run(true), "chaos present-but-idle is free");
}

#[test]
fn scrape_telemetry_counts_chaos_and_flight_events() {
    use sirpent_telemetry::names;

    let mut sim = Simulator::new(31);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.enable_flight(64);
    sim.node_mut::<Probe>(a).send_on_timer = Some((0, vec![9; 1250]));
    sim.kick(SimTime::ZERO, a, 1);
    sim.install_schedule(schedule(vec![
        (400_000, ChaosAction::LinkDown { ch: ab }),
        (500_000, ChaosAction::LinkUp { ch: ab }),
        (600_000, ChaosAction::DuplicateStart { ch: ab, prob: 0.5 }),
        (700_000, ChaosAction::DuplicateEnd { ch: ab }),
    ]));
    sim.run(1000);
    let reg = sim.scrape_telemetry().unwrap();
    assert_eq!(reg.counter(names::CHAOS_EVENTS_TOTAL), 4);
    assert_eq!(reg.counter(names::CHAOS_LINK_TRANSITIONS_TOTAL), 2);
    assert_eq!(reg.counter(names::CHAOS_WINDOW_UPDATES_TOTAL), 2);
    assert_eq!(reg.counter(names::CHAOS_ROUTER_TRANSITIONS_TOTAL), 0);
    // The recorder is live (Probe records nothing itself, so zero
    // events is correct) and its instruments are published.
    assert!(reg.get(names::FLIGHT_EVENTS_RECORDED_TOTAL).is_some());
    assert!(sim.flight().unwrap().is_empty());
}

#[test]
#[should_panic(expected = "enable_flight")]
fn enable_flight_rejects_zero_capacity() {
    let mut sim = Simulator::new(32);
    sim.enable_flight(0);
}

#[test]
fn flight_record_via_context_is_stamped_with_node_and_time() {
    struct Recorder;
    impl Node for Recorder {
        fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
            if matches!(ev, Event::Timer { .. }) {
                assert!(ctx.flight_enabled());
                ctx.flight_record(0xFEED, HopKind::Inject);
                ctx.flight_record_at(SimTime(9_999_999), 0xFEED, HopKind::Delivered);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Simulator::new(33);
    let a = sim.add_node(Box::new(Recorder));
    sim.enable_flight(8);
    sim.kick(SimTime(1_000), a, 0);
    sim.run(10);
    let fr = sim.flight().unwrap();
    let evs: Vec<HopEvent> = fr.events().copied().collect();
    assert_eq!(evs.len(), 2);
    assert_eq!(evs[0].node, a.0 as u32);
    assert_eq!(evs[0].t_ns, 1_000);
    assert_eq!(evs[1].t_ns, 9_999_999);
    let traces = fr.reconstruct();
    assert_eq!(traces.len(), 1);
    assert!(traces[0].is_complete());
}

#[test]
#[should_panic(expected = "set_faults")]
fn set_faults_rejects_nan() {
    let mut sim = Simulator::new(30);
    let a = sim.add_node(Box::<Probe>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, MBPS_10, SimDuration::ZERO);
    sim.set_faults(
        ab,
        FaultConfig {
            drop_prob: f64::NAN,
            corrupt_prob: 0.0,
        },
    );
}
