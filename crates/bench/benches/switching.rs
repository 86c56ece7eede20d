//! Criterion benchmark for whole-simulation throughput: events/sec of a
//! loaded router chain — the simulator-as-substrate cost, useful when
//! sizing larger experiments.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use sirpent::router::dataplane::{Discipline, OutputPort, Queued};
use sirpent::router::scripted::ScriptedHost;
use sirpent::router::viper::SwitchMode;
use sirpent::sim::stats::PipelineStats;
use sirpent::sim::{SimDuration, SimTime};
use sirpent::wire::buf::{FrameBuf, PacketBuf};
use sirpent::wire::packet::{append_return_hop_buf, strip_front_segment_buf, PacketBuilder};
use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};
use sirpent_bench::topo::{chain, frame, packet};

fn run_chain(hops: usize, packets: usize, mode: SwitchMode) -> u64 {
    let mut c = chain(7, hops, 100_000_000, SimDuration(1_000), mode);
    for i in 0..packets {
        let pkt = packet(hops, vec![0x42; 512], Priority::NORMAL);
        c.sim
            .node_mut::<ScriptedHost>(c.src)
            .plan(SimTime(i as u64 * 50_000), 0, frame(pkt));
    }
    ScriptedHost::start(&mut c.sim, c.src);
    c.sim.run_until(SimTime(1_000_000_000));
    assert_eq!(c.sim.node::<ScriptedHost>(c.dst).received.len(), packets);
    c.sim.events_dispatched()
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(20);
    for hops in [1usize, 4] {
        let packets = 200;
        let events = run_chain(hops, packets, SwitchMode::CutThrough);
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new("cut_through_chain", hops),
            &hops,
            |b, &hops| b.iter(|| run_chain(hops, packets, SwitchMode::CutThrough)),
        );
        g.bench_with_input(
            BenchmarkId::new("store_forward_chain", hops),
            &hops,
            |b, &hops| {
                b.iter(|| {
                    run_chain(
                        hops,
                        packets,
                        SwitchMode::StoreAndForward {
                            process_delay: SimDuration::from_micros(50),
                        },
                    )
                })
            },
        );
    }
    g.finish();
}

/// Number of forwarding hops processed per routine call in the payload
/// sweep. Amortizing over a long route keeps the buffer cache-warm so
/// the measurement isolates the per-hop byte operations themselves.
const SWEEP_HOPS: usize = 40;

/// `SWEEP_HOPS` transit hops + local delivery, `payload` bytes of data.
fn sweep_packet(payload: usize) -> Vec<u8> {
    let mut b = PacketBuilder::new().without_mtu_check();
    for i in 0..SWEEP_HOPS {
        b = b.segment(SegmentRepr {
            port: (i % 250) as u8 + 1,
            port_token: vec![0xAA; 8],
            port_info: vec![0xBB; 14],
            ..Default::default()
        });
    }
    b.segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(vec![0x42; payload])
        .build()
        .unwrap()
}

/// Payload-size sweep of the per-hop forwarding operation (strip the
/// leading segment, append the reversed return hop) over a full
/// `SWEEP_HOPS`-hop route. Both are offset moves into pre-reserved
/// space on the zero-copy `PacketBuf`, so cost must stay flat from
/// 64 B to 1400 B.
fn bench_per_hop_payload_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("per_hop_cost");
    g.sample_size(30);
    for size in [64usize, 256, 512, 1024, 1400] {
        let bytes = sweep_packet(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(
            BenchmarkId::new("packetbuf_40hops", size),
            &bytes,
            |b, bytes| {
                b.iter_batched(
                    || PacketBuf::from_vec(bytes.clone()),
                    |mut p| {
                        for _ in 0..SWEEP_HOPS {
                            let view = strip_front_segment_buf(&mut p).unwrap();
                            let rh = SegmentRepr {
                                port: 1,
                                ..view.to_repr()
                            };
                            drop(view);
                            append_return_hop_buf(&mut p, rh).unwrap();
                        }
                        p
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

/// Fan-out sweep: replicating one packet to 8 output ports (multicast
/// sets, retry queues, bus taps). A `PacketBuf` clone is a reference
/// count bump regardless of payload; a `Vec` clone copies every byte.
fn bench_fanout_payload_sweep(c: &mut Criterion) {
    const WAYS: usize = 8;
    let mut g = c.benchmark_group("fanout_cost");
    g.sample_size(30);
    for size in [64usize, 256, 512, 1024, 1400] {
        let bytes = sweep_packet(size);
        g.throughput(Throughput::Bytes((size * WAYS) as u64));
        let buf = PacketBuf::from_vec(bytes.clone());
        g.bench_with_input(BenchmarkId::new("packetbuf_8way", size), &buf, |b, buf| {
            b.iter(|| {
                let mut out = Vec::with_capacity(WAYS);
                for _ in 0..WAYS {
                    out.push(buf.clone());
                }
                out
            })
        });
        g.bench_with_input(BenchmarkId::new("vec_8way", size), &bytes, |b, bytes| {
            b.iter(|| {
                let mut out = Vec::with_capacity(WAYS);
                for _ in 0..WAYS {
                    out.push(bytes.clone());
                }
                out
            })
        });
    }
    g.finish();
}

/// Queue-service sweep: drain a FIFO output queue of a given depth,
/// one head removal per serviced packet. The shared
/// [`OutputPort`] backs its queue with a `VecDeque`, so `pop_eligible`
/// is O(1) and the per-element cost must stay flat from depth 8 to
/// depth 1000. The `Vec::remove(0)` baseline — what the IP and CVC
/// planes did before adopting the shared scheduler — memmoves the
/// whole remaining queue on every service, so its per-element cost
/// grows linearly with depth.
fn bench_queue_service(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_service");
    g.sample_size(30);
    let now = SimTime::ZERO;
    for depth in [8usize, 1000] {
        g.throughput(Throughput::Elements(depth as u64));
        g.bench_with_input(
            BenchmarkId::new("popfront_drain", depth),
            &depth,
            |b, &depth| {
                b.iter_batched(
                    || {
                        let mut stats = PipelineStats::default();
                        let mut op = OutputPort::new(1, Discipline::Fifo, usize::MAX);
                        for _ in 0..depth {
                            let f = FrameBuf::from(vec![0x42u8; 64]);
                            op.push_untimed(Queued::fifo(f, now, None), &mut stats);
                        }
                        op
                    },
                    |mut op| {
                        while let Some(q) = op.pop_eligible(now) {
                            std::hint::black_box(q);
                        }
                        op
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(
            BenchmarkId::new("vec_remove0_drain", depth),
            &depth,
            |b, &depth| {
                b.iter_batched(
                    || {
                        (0..depth)
                            .map(|_| FrameBuf::from(vec![0x42u8; 64]))
                            .collect::<Vec<_>>()
                    },
                    |mut q| {
                        while !q.is_empty() {
                            std::hint::black_box(q.remove(0));
                        }
                        q
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_per_hop_payload_sweep,
    bench_fanout_payload_sweep,
    bench_queue_service
);
criterion_main!(benches);
