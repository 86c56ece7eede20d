//! Engine behaviour tests: frame timing, aborts, buses, fault injection
//! and the chaos layer, driven through the public `Simulator` surface.

use std::any::Any;
use std::collections::VecDeque;

use sirpent_telemetry::{names, HopEvent, HopKind};
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
                    let tx = ctx.transmit(port, bytes).unwrap();
                    ctx.arm_completion(port, tx.frame);
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
    let frame = FrameBuf::new(&[1, 0], body.clone());
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

// ----- completions on demand and deciding ahead ------------------------

const GBPS: u64 = 1_000_000_000;

/// Transmits 125 B (1 µs at 1 Gb/s) on timer 1, setting timer 10 for the
/// frame's end just before the transmit and timer 11 just after. Arms
/// the completion at once, or only on timer 2 when `arm_late`, or never
/// when `arm_never`. Logs each timer with whether the transmission had
/// finished by then, and the `TxDone`.
#[derive(Default)]
struct Tie {
    arm_late: bool,
    arm_never: bool,
    tx: Option<TxInfo>,
    log: Vec<(SimTime, &'static str, bool)>,
}

impl Tie {
    fn finished(&self, ctx: &Context<'_>) -> bool {
        self.tx
            .is_some_and(|tx| ctx.tx_finished(0, tx.frame, tx.end))
    }
}

impl Node for Tie {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Timer { key: 1 } => {
                ctx.schedule_at(ctx.now() + SimDuration(1_000), 10);
                let tx = ctx.transmit(0, vec![0; 125]).unwrap();
                ctx.schedule_at(tx.end, 11);
                self.tx = Some(tx);
                if !self.arm_late && !self.arm_never {
                    ctx.arm_completion(0, tx.frame);
                }
            }
            Event::Timer { key: 2 } => {
                if let Some(tx) = self.tx.filter(|_| self.arm_late) {
                    ctx.arm_completion(0, tx.frame);
                }
            }
            Event::Timer { key: 10 } => self.log.push((ctx.now(), "timer 10", self.finished(ctx))),
            Event::Timer { key: 11 } => self.log.push((ctx.now(), "timer 11", self.finished(ctx))),
            Event::TxDone { .. } => self.log.push((ctx.now(), "done", self.finished(ctx))),
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn an_armed_completion_lands_where_an_unconditional_txdone_did() {
    // The completion's key is taken when the transmission starts: after
    // timer 10 was scheduled and before timer 11. Armed at once or half
    // way through, its `TxDone` sits between them — where a `TxDone`
    // scheduled with every transmission always sat — and, armed or not,
    // the transmission reads as finished from that key on.
    let run = |arm_late: bool, arm_never: bool| {
        let mut sim = Simulator::new(40);
        let a = sim.add_node(Box::new(Tie {
            arm_late,
            arm_never,
            ..Tie::default()
        }));
        let b = sim.add_node(Box::<Probe>::default());
        sim.p2p(a, 0, b, 0, GBPS, SimDuration(100));
        sim.kick(SimTime::ZERO, a, 1);
        sim.kick(SimTime(500), a, 2);
        sim.run_until(SimTime(10_000));
        let armed = sim
            .scrape_telemetry()
            .unwrap()
            .counter(names::SIM_COMPLETIONS_ARMED_TOTAL);
        (sim.node::<Tie>(a).log.clone(), armed)
    };
    let t = SimTime(1_000);
    let want = vec![
        (t, "timer 10", false),
        (t, "done", true),
        (t, "timer 11", true),
    ];
    assert_eq!(run(false, false), (want.clone(), 1), "armed at transmit");
    assert_eq!(run(true, false), (want, 1), "armed half way through");
    assert_eq!(
        run(false, true),
        (vec![(t, "timer 10", false), (t, "timer 11", true)], 0),
        "never armed: the transmission finishes silently"
    );
}

/// Sends two frames back to back on timer 1 (arming neither) and aborts
/// on timer 99.
#[derive(Default)]
struct TwoThenAbort {
    sent: Vec<FrameId>,
    abort: Option<Result<AbortInfo, SimError>>,
}

impl Node for TwoThenAbort {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Timer { key: 1 } => {
                for _ in 0..2 {
                    self.sent.push(ctx.transmit(0, vec![7; 125]).unwrap().frame);
                }
            }
            Event::Timer { key: 99 } => self.abort = Some(ctx.abort_current_tx(0)),
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn preemption_sees_past_a_finished_record_not_yet_retired() {
    // The first frame finished at 1 µs and nothing touched the channel
    // since, so its record is still there; the abort at 1.5 µs must retire
    // it first, find the second frame alone on the wire, and take.
    let mut sim = Simulator::new(41);
    let a = sim.add_node(Box::<TwoThenAbort>::default());
    let b = sim.add_node(Box::<Probe>::default());
    let (ab, _) = sim.p2p(a, 0, b, 0, GBPS, SimDuration(100));
    sim.kick(SimTime::ZERO, a, 1);
    sim.kick(SimTime(1_500), a, 99);
    sim.run_until(SimTime(10_000));
    let node = sim.node::<TwoThenAbort>(a);
    let abort = node.abort.unwrap().expect("the abort takes");
    assert_eq!(abort.frame, node.sent[1]);
    assert_eq!(abort.bytes_sent, 62, "500 ns at 1 Gb/s");
    let probe = sim.node::<Probe>(b);
    assert_eq!(probe.frames.len(), 2, "both first bits were announced");
    assert_eq!(probe.aborted.len(), 1, "only the second was retracted");
    assert_eq!(sim.channel_stats(ab).aborts, 1);
}

/// Records, for every frame it hears, whether it could decide `lead`
/// after the first bit right away.
#[derive(Default)]
struct Asker {
    lead: u64,
    answers: Vec<bool>,
}

impl Node for Asker {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        if let Event::Frame(fe) = ev {
            let at = fe.first_bit + SimDuration(self.lead);
            self.answers.push(ctx.quiet_until(at));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn each_quiet_condition_refuses_on_its_own() {
    // S sends one frame to N at t = 0; its first bit lands at 10 µs and N
    // asks whether it is quiet until 10.5 µs. Each case breaks exactly one
    // condition of an otherwise quiet setting.
    let ask = |case: &str| -> Vec<bool> {
        let mut sim = Simulator::new(42);
        let s = sim.add_node(Box::<Probe>::default());
        let n = sim.add_node(Box::new(Asker {
            lead: 500,
            ..Asker::default()
        }));
        let t = sim.add_node(Box::<Probe>::default());
        let (into, _) = sim.p2p(s, 0, n, 0, GBPS, SimDuration(10_000));
        let (out, _) = sim.p2p(n, 1, t, 0, GBPS, SimDuration(10_000));
        sim.node_mut::<Probe>(s).send_on_timer = Some((0, vec![1; 64]));
        sim.kick(SimTime::ZERO, s, 1);
        let at = |ns, action| ChaosEvent {
            at: SimTime(ns),
            action,
        };
        let mut run_to_end = true;
        match case {
            "quiet" => {}
            "an event due by the decision" => sim.kick(SimTime(10_500), n, 7),
            "an event due after it" => sim.kick(SimTime(10_501), n, 7),
            "a short channel in" => {
                let u = sim.add_node(Box::<Probe>::default());
                sim.p2p(u, 0, n, 2, GBPS, SimDuration(500));
            }
            "a chaos action due" => {
                let schedule = FaultSchedule::new(vec![at(10_300, ChaosAction::PartitionEnd)]);
                sim.install_schedule(schedule.unwrap());
            }
            "past the deadline" => {
                sim.run_until(SimTime(10_499));
            }
            "outside run_until" => {
                sim.run(100);
                run_to_end = false;
            }
            "a shared output" => {
                let x = sim.add_node(Box::<Probe>::default());
                let bus = sim.add_channel(GBPS, SimDuration(10_000));
                sim.attach(bus, n, 3);
                sim.attach(bus, x, 0);
            }
            "a fault config out" => sim.set_faults(
                out,
                FaultConfig {
                    drop_prob: 0.0,
                    corrupt_prob: 0.1,
                },
            ),
            "a chaos window out" => {
                let jitter = ChaosAction::JitterStart {
                    ch: out,
                    max_extra: SimDuration(10),
                };
                sim.install_schedule(FaultSchedule::new(vec![at(5_000, jitter)]).unwrap());
            }
            "the flight recorder" => sim.enable_flight(16),
            "a batch" => {
                // The frame arrives twice, scheduled back to back: one
                // batch of two.
                let dup = ChaosAction::DuplicateStart {
                    ch: into,
                    prob: 1.0,
                };
                sim.install_schedule(FaultSchedule::new(vec![at(0, dup)]).unwrap());
            }
            other => panic!("no case {other}"),
        }
        if run_to_end {
            sim.run_until(SimTime(1_000_000));
        }
        sim.node::<Asker>(n).answers.clone()
    };
    assert_eq!(ask("quiet"), [true]);
    assert_eq!(ask("an event due after it"), [true], "the book is exact");
    for case in [
        "an event due by the decision",
        "a short channel in",
        "a chaos action due",
        "past the deadline",
        "outside run_until",
        "a shared output",
        "a fault config out",
        "a chaos window out",
        "the flight recorder",
    ] {
        assert_eq!(ask(case), [false], "{case}");
    }
    assert_eq!(ask("a batch"), [false, false], "a batch");
}

/// A forwarder in miniature: it decides `lead` after a frame's first bit
/// (in the frame's event when quiet, unless `timers_only`) to send the
/// frame on out port 1, queueing behind a transmission in progress and
/// arming that transmission's completion.
#[derive(Default)]
struct Hop {
    lead: u64,
    timers_only: bool,
    waiting: Vec<(u64, Vec<u8>)>,
    next_key: u64,
    queue: VecDeque<Vec<u8>>,
    current: Option<(FrameId, SimTime)>,
    sent: Vec<(SimTime, Vec<u8>)>,
    ahead: u64,
    deferred: u64,
}

impl Hop {
    fn forward(&mut self, ctx: &mut Context<'_>, bytes: Vec<u8>) {
        if let Some((frame, end)) = self.current {
            if !ctx.tx_finished(1, frame, end) {
                self.queue.push_back(bytes);
                ctx.arm_completion(1, frame);
                return;
            }
        }
        self.send(ctx, bytes);
    }

    fn send(&mut self, ctx: &mut Context<'_>, bytes: Vec<u8>) {
        self.sent.push((ctx.now(), bytes.clone()));
        let tx = ctx.transmit(1, bytes).unwrap();
        self.current = Some((tx.frame, tx.end));
        if !self.queue.is_empty() {
            ctx.arm_completion(1, tx.frame);
        }
    }
}

impl Node for Hop {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                let at = fe.first_bit + SimDuration(self.lead);
                let bytes = fe.frame.payload.to_vec();
                if !self.timers_only && ctx.quiet_until(at) {
                    self.ahead += 1;
                    ctx.decide_at(at, |ctx| self.forward(ctx, bytes));
                } else {
                    self.deferred += 1;
                    self.next_key += 1;
                    self.waiting.push((self.next_key, bytes));
                    ctx.schedule_at(at, self.next_key);
                }
            }
            Event::Timer { key } => {
                if let Some(i) = self.waiting.iter().position(|&(k, _)| k == key) {
                    let (_, bytes) = self.waiting.remove(i);
                    self.forward(ctx, bytes);
                }
            }
            Event::TxDone { frame, .. } if self.current.is_some_and(|(f, _)| f == frame) => {
                self.current = None;
                if let Some(bytes) = self.queue.pop_front() {
                    self.send(ctx, bytes);
                }
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn held_events_break_a_next_hop_tie_as_the_timer_path_does() {
    // X hears a frame at 2 µs and decides at 2.4 µs; W sends at 2.2 µs.
    // Both frames reach Z at 5.4 µs. On the timer path W's arrival was
    // scheduled first, so it is delivered first; a decision made ahead
    // at 2 µs must not jump that queue.
    let run = |timers_only: bool| {
        let mut sim = Simulator::new(43);
        let s = sim.add_node(Box::<Probe>::default());
        let x = sim.add_node(Box::new(Hop {
            lead: 400,
            timers_only,
            ..Hop::default()
        }));
        let w = sim.add_node(Box::<Probe>::default());
        let z = sim.add_node(Box::<Probe>::default());
        sim.p2p(s, 0, x, 0, GBPS, SimDuration(2_000));
        sim.p2p(x, 1, z, 0, GBPS, SimDuration(3_000));
        sim.p2p(w, 0, z, 1, GBPS, SimDuration(3_200));
        sim.node_mut::<Probe>(s).send_on_timer = Some((0, vec![1; 64]));
        sim.node_mut::<Probe>(w).send_on_timer = Some((0, vec![2; 64]));
        sim.kick(SimTime::ZERO, s, 1);
        sim.kick(SimTime(2_200), w, 1);
        sim.run_until(SimTime(100_000));
        let hop = sim.node::<Hop>(x);
        let order: Vec<(SimTime, u8)> = sim
            .node::<Probe>(z)
            .frames
            .iter()
            .map(|f| (f.0, f.2[0]))
            .collect();
        (order, hop.ahead, hop.deferred)
    };
    let tie = SimTime(5_400);
    let want = vec![(tie, 2), (tie, 1)];
    assert_eq!(run(true), (want.clone(), 0, 1), "timer path");
    assert_eq!(run(false), (want, 1, 0), "decided ahead");
}

/// Src → H1 → H2 → H3 → sink, H1's output at half rate so frames queue
/// and completions are armed. Returns the simulator mid-run and the ids.
fn hop_chain(timers_only: bool) -> (Simulator, Vec<NodeId>) {
    let mut sim = Simulator::new(44);
    let src = sim.add_node(Box::<Probe>::default());
    let hops: Vec<NodeId> = (0..3)
        .map(|_| {
            sim.add_node(Box::new(Hop {
                lead: 300,
                timers_only,
                ..Hop::default()
            }))
        })
        .collect();
    let sink = sim.add_node(Box::<Probe>::default());
    sim.p2p(src, 0, hops[0], 0, GBPS, SimDuration(2_000));
    sim.p2p(hops[0], 1, hops[1], 0, GBPS / 2, SimDuration(5_000));
    sim.p2p(hops[1], 1, hops[2], 0, GBPS, SimDuration(5_000));
    sim.p2p(hops[2], 1, sink, 0, GBPS, SimDuration(2_000));
    sim.node_mut::<Probe>(src).send_on_timer = Some((0, vec![9; 200]));
    for burst in 0..20u64 {
        for _ in 0..3 {
            sim.kick(SimTime(burst * 7_919), src, 1);
        }
    }
    let mut ids = vec![src];
    ids.extend(hops);
    ids.push(sink);
    (sim, ids)
}

#[test]
fn deciding_ahead_changes_no_outcome() {
    let end = SimTime(1_000_000);
    // What a run delivered and forwarded, and its events less the
    // decision timers (which only a node that could not decide ahead
    // dispatches).
    let outcome = |sim: &Simulator, ids: &[NodeId]| {
        let hops = &ids[1..4];
        let sent: Vec<_> = hops
            .iter()
            .map(|&h| sim.node::<Hop>(h).sent.clone())
            .collect();
        let timers: u64 = hops.iter().map(|&h| sim.node::<Hop>(h).deferred).sum();
        let sink = sim.node::<Probe>(ids[4]).frames.clone();
        (sink, sent, sim.events_dispatched() - timers)
    };

    let (mut timers, ids) = hop_chain(true);
    timers.run_until(end);
    let want = outcome(&timers, &ids);
    assert_eq!(want.0.len(), 60, "every frame arrives");

    let (mut serial, _) = hop_chain(false);
    serial.run_until(end);
    assert_eq!(outcome(&serial, &ids), want, "deciding ahead");
    let armed = serial.scrape_telemetry().unwrap();
    assert!(
        armed.counter(names::SIM_COMPLETIONS_ARMED_TOTAL) > 0,
        "frames queued"
    );
    assert!(ids[1..4].iter().all(|&h| serial.node::<Hop>(h).ahead > 0));
}
