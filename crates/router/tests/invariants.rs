//! Property-style invariants over randomized traffic: packet
//! conservation (nothing vanishes unaccounted) and bit-for-bit
//! determinism of whole simulations.

use proptest::prelude::*;
use sirpent_router::link::LinkFrame;
use sirpent_router::scripted::ScriptedHost;
use sirpent_router::viper::{SwitchMode, ViperConfig, ViperRouter};
use sirpent_sim::{SimDuration, SimTime, Simulator};
use sirpent_wire::packet::PacketBuilder;
use sirpent_wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(2_000);

#[derive(Debug, Clone)]
struct Workload {
    /// (send offset ns, payload len, priority nibble, dib)
    packets: Vec<(u64, usize, u8, bool)>,
    seed: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(
            (0u64..3_000_000, 16usize..600, 0u8..16, any::<bool>()),
            1..25,
        ),
        any::<u64>(),
    )
        .prop_map(|(packets, seed)| Workload { packets, seed })
}

/// Run src → R → dst with the workload; returns
/// (sent, delivered, router_drops, local, still_queued).
fn run(w: &Workload, mode: SwitchMode) -> (u64, u64, u64, u64, u64) {
    let mut sim = Simulator::new(w.seed);
    let src = sim.add_node(Box::new(ScriptedHost::new()));
    let dst = sim.add_node(Box::new(ScriptedHost::new()));
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.mode = mode;
    cfg.queue_capacity = 8; // small: exercise QueueFull
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(src, 0, r, 1, RATE, PROP);
    sim.p2p(r, 2, dst, 0, RATE, PROP);

    for &(at, len, prio, dib) in &w.packets {
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                priority: Priority::new(prio),
                flags: Flags {
                    dib,
                    ..Default::default()
                },
                ..Default::default()
            })
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![0x5A; len])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(src).plan(
            SimTime(at),
            0,
            LinkFrame::Sirpent {
                ff_hint: 0,
                packet: pkt.into(),
            }
            .into_p2p_frame(),
        );
    }
    ScriptedHost::start(&mut sim, src);
    sim.run_until(SimTime(60_000_000)); // long enough to drain

    let router = sim.node::<ViperRouter>(r);
    let delivered = sim.node::<ScriptedHost>(dst).received.len() as u64;
    (
        w.packets.len() as u64,
        delivered,
        router.stats.total_drops(),
        router.stats.local,
        router.queue_len(1) as u64 + router.queue_len(2) as u64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every packet the source sends is delivered, dropped with a
    /// recorded reason, or (never, after draining) still queued.
    #[test]
    fn packets_are_conserved(w in arb_workload()) {
        for mode in [
            SwitchMode::CutThrough,
            SwitchMode::StoreAndForward { process_delay: SimDuration::from_micros(20) },
        ] {
            let (sent, delivered, drops, local, queued) = run(&w, mode);
            prop_assert_eq!(
                sent,
                delivered + drops + local + queued,
                "conservation violated ({:?}): sent={} delivered={} drops={} local={} queued={}",
                mode, sent, delivered, drops, local, queued
            );
            prop_assert_eq!(queued, 0, "everything drains");
        }
    }

    /// The same seed and workload produce the identical outcome.
    #[test]
    fn whole_simulations_are_deterministic(w in arb_workload()) {
        let a = run(&w, SwitchMode::CutThrough);
        let b = run(&w, SwitchMode::CutThrough);
        prop_assert_eq!(a, b);
    }
}
