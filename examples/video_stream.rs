//! Real-time video over Sirpent: priority preemption and jitter replay.
//!
//! The paper claims Sirpent supports "a variety of types of traffic
//! ranging from real-time video to file transfer" with no circuit
//! switching: the type-of-service field only matters when a packet is
//! blocked, and priorities 6–7 preempt in mid-transmission (§2.1, §5).
//! §8 adds that receivers can "recreate the original packet transmission
//! spacing" from the VMTP timestamps — jitter replay.
//!
//! This example shares one output link between a priority-7 CBR video
//! stream and a bulk file transfer, then compares video jitter with
//! priority on and off, and demonstrates timestamp-based replay.
//!
//! Run with: `cargo run --release --example video_stream`

use sirpent::router::link::LinkFrame;
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::{ViperConfig, ViperRouter};
use sirpent::sim::stats::Summary;
use sirpent::sim::{SimDuration, SimTime, Simulator};
use sirpent::wire::packet::{PacketBuilder, PacketView};
use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};

const LINK: u64 = 10_000_000; // 10 Mb/s shared output
const PROP: SimDuration = SimDuration(5_000);
const FRAME_GAP: SimDuration = SimDuration(10_000_000); // 100 fps → 10 ms
const VIDEO_FRAMES: usize = 60;

/// Build the shared topology: video source + file source → router → sink.
/// Returns (sim, video_src, sink).
fn build(video_priority: u8) -> (Simulator, Vec<SimTime>, sirpent_ids::Ids) {
    let mut sim = Simulator::new(2024);
    let video = sim.add_node(Box::new(ScriptedHost::new()));
    let file = sim.add_node(Box::new(ScriptedHost::new()));
    let sink = sim.add_node(Box::new(ScriptedHost::new()));
    let r = sim.add_node(Box::new(ViperRouter::new(ViperConfig::basic(
        1,
        &[1, 2, 3],
    ))));
    sim.p2p(video, 0, r, 1, LINK, PROP);
    sim.p2p(file, 0, r, 2, LINK, PROP);
    sim.p2p(r, 3, sink, 0, LINK, PROP);

    // Video: 500-byte frame every 10 ms, stamped with its send time in
    // the first 8 payload bytes (the "timestamp" for replay).
    let mut sent_at = Vec::new();
    for i in 0..VIDEO_FRAMES {
        let at = SimTime(i as u64 * FRAME_GAP.as_nanos());
        sent_at.push(at);
        let mut payload = at.as_nanos().to_be_bytes().to_vec();
        payload.extend(vec![0x56; 492]); // 'V'
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 3,
                priority: Priority::new(video_priority),
                ..Default::default()
            })
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(payload)
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(video).plan(
            at,
            0,
            LinkFrame::Sirpent {
                ff_hint: 0,
                packet: pkt.into(),
            }
            .into_p2p_frame(),
        );
    }

    // File transfer: back-to-back 1200-byte packets saturating the link.
    for i in 0..600usize {
        let at = SimTime(i as u64 * 1_000_000); // 1200 B ≈ 0.97 ms wire time
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 3,
                priority: Priority::new(0),
                ..Default::default()
            })
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![0x46; 1200]) // 'F'
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(file).plan(
            at,
            0,
            LinkFrame::Sirpent {
                ff_hint: 0,
                packet: pkt.into(),
            }
            .into_p2p_frame(),
        );
    }

    ScriptedHost::start(&mut sim, video);
    ScriptedHost::start(&mut sim, file);
    (sim, sent_at, sirpent_ids::Ids { sink, router: r })
}

mod sirpent_ids {
    pub struct Ids {
        pub sink: sirpent::sim::NodeId,
        pub router: sirpent::sim::NodeId,
    }
}

/// Run one configuration; return (video arrivals, preemption count,
/// delivered file packets).
fn run(video_priority: u8) -> (Vec<(SimTime, u64)>, u64, usize) {
    let (mut sim, _sent, ids) = build(video_priority);
    sim.run_until(SimTime(1_000_000_000));
    let mut video_rx = Vec::new();
    let mut file_rx = 0usize;
    for (t, f) in sim.node::<ScriptedHost>(ids.sink).received_p2p() {
        let LinkFrame::Sirpent { packet, .. } = f else {
            continue;
        };
        let Ok(view) = PacketView::parse(&packet) else {
            continue;
        };
        let data = view.data(&packet);
        if data.len() >= 8 && data[8..].iter().all(|&b| b == 0x56) {
            let stamp = u64::from_be_bytes(data[..8].try_into().unwrap());
            video_rx.push((t, stamp));
        } else if data.first() == Some(&0x46) {
            file_rx += 1;
        }
    }
    let preempted = sim
        .node::<ViperRouter>(ids.router)
        .stats
        .drops
        .get(sirpent::router::viper::DropReason::Preempted);
    (video_rx, preempted, file_rx)
}

fn jitter_stats(rx: &[(SimTime, u64)]) -> (Summary, Summary) {
    let mut delay = Summary::new();
    let mut jitter = Summary::new();
    let mut prev_gap: Option<f64> = None;
    for w in rx.windows(2) {
        let gap = (w[1].0.as_nanos() - w[0].0.as_nanos()) as f64 / 1e6; // ms
        if let Some(_p) = prev_gap {
            jitter.record((gap - 10.0).abs()); // deviation from 10 ms cadence
        }
        prev_gap = Some(gap);
    }
    for (t, stamp) in rx {
        delay.record((t.as_nanos() - stamp) as f64 / 1e6);
    }
    (delay, jitter)
}

fn main() {
    println!("video (60 frames @ 10 ms) sharing a 10 Mb/s link with a saturating file transfer\n");
    for (label, prio) in [
        ("video at normal priority (0)", 0u8),
        ("video at preemptive priority (7)", 7),
    ] {
        let (rx, preempted, file_rx) = run(prio);
        let (delay, jitter) = jitter_stats(&rx);
        println!("--- {label} ---");
        println!(
            "  delivered {}/{VIDEO_FRAMES} video frames, {} file packets, {} preemptions",
            rx.len(),
            file_rx,
            preempted
        );
        println!(
            "  video one-way delay: mean {:.2} ms, max {:.2} ms",
            delay.mean(),
            delay.max()
        );
        println!(
            "  cadence deviation from 10 ms: mean {:.3} ms, max {:.3} ms",
            jitter.mean(),
            jitter.max()
        );

        // Jitter replay (§8): delay each frame to the worst-case delay using
        // its timestamp, recreating the original spacing.
        let worst = delay.max();
        let mut replayed = Summary::new();
        let mut prev: Option<f64> = None;
        for (_, stamp) in &rx {
            let play_at = *stamp as f64 / 1e6 + worst;
            if let Some(p) = prev {
                replayed.record(((play_at - p) - 10.0).abs());
            }
            prev = Some(play_at);
        }
        println!(
            "  after timestamp replay (buffer {:.2} ms): cadence deviation {:.4} ms\n",
            worst,
            replayed.max()
        );
    }
}
