//! Criterion micro-benchmarks for the wire formats: the per-packet
//! operations a software VIPER router performs (E1's throughput
//! companion), next to the IP baseline's per-hop work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sirpent::wire::buf::PacketBuf;
use sirpent::wire::packet::{
    append_return_hop_buf, peek_front_segment, strip_front_segment_buf, PacketBuilder, PacketView,
};
use sirpent::wire::viper::{SegmentRepr, PORT_LOCAL};
use sirpent::wire::{ethernet, ipish, vmtp};

fn bench_viper_segment(c: &mut Criterion) {
    let mut g = c.benchmark_group("viper_segment");
    let seg = SegmentRepr {
        port: 3,
        port_token: vec![0xAA; 32],
        port_info: vec![0; 14],
        ..Default::default()
    };
    let bytes = seg.to_bytes();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("parse", |b| {
        b.iter(|| SegmentRepr::parse_prefix(std::hint::black_box(&bytes)).unwrap())
    });
    g.bench_function("emit", |b| {
        let mut buf = vec![0u8; seg.buffer_len()];
        b.iter(|| seg.emit(std::hint::black_box(&mut buf)).unwrap())
    });
    g.finish();
}

fn bench_router_byte_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("router_pipeline");
    for hops in [1usize, 4, 8] {
        let mut b = PacketBuilder::new();
        for _ in 0..hops {
            b = b.segment(SegmentRepr {
                port: 2,
                port_info: vec![0; 14],
                ..Default::default()
            });
        }
        let pkt = b
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![0x77; 1000])
            .build()
            .unwrap();
        g.throughput(Throughput::Bytes(pkt.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("strip+return_hop", hops),
            &pkt,
            |bench, pkt| {
                bench.iter(|| {
                    let mut p = PacketBuf::from_vec(pkt.clone());
                    let seg = strip_front_segment_buf(&mut p).unwrap().to_repr();
                    append_return_hop_buf(&mut p, SegmentRepr { port: 1, ..seg }).unwrap();
                    p
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("peek_decision", hops),
            &pkt,
            |bench, pkt| bench.iter(|| peek_front_segment(std::hint::black_box(pkt)).unwrap().port),
        );
        g.bench_with_input(BenchmarkId::new("full_parse", hops), &pkt, |bench, pkt| {
            bench.iter(|| PacketView::parse(std::hint::black_box(pkt)).unwrap())
        });
    }
    g.finish();
}

fn bench_ip_per_hop_work(c: &mut Criterion) {
    let mut g = c.benchmark_group("ip_baseline");
    let mut dg = ipish::Repr {
        tos: 0,
        total_len: 1020,
        ident: 1,
        dont_frag: false,
        more_frags: false,
        frag_offset: 0,
        ttl: 32,
        protocol: 17,
        src: ipish::Address::new(10, 0, 0, 1),
        dst: ipish::Address::new(10, 0, 2, 2),
    }
    .to_bytes();
    dg.extend(vec![0u8; 1000]);
    g.throughput(Throughput::Bytes(dg.len() as u64));
    g.bench_function("verify+ttl+checksum", |b| {
        b.iter(|| {
            let mut d = dg.clone();
            ipish::Repr::parse(&d).unwrap();
            ipish::decrement_ttl(&mut d).unwrap();
            d[8] = 32;
            d
        })
    });
    g.finish();
}

fn bench_ethernet_and_vmtp(c: &mut Criterion) {
    let mut g = c.benchmark_group("other_formats");
    let eth = ethernet::Repr {
        src: ethernet::Address::from_index(1),
        dst: ethernet::Address::from_index(2),
        ethertype: ethernet::EtherType::Sirpent,
    }
    .to_bytes();
    g.bench_function("ethernet_parse", |b| {
        b.iter(|| ethernet::Repr::parse(std::hint::black_box(&eth)).unwrap())
    });

    let vp = vmtp::Packet {
        header: vmtp::Header {
            src: vmtp::EntityId(1),
            dst: vmtp::EntityId(2),
            transaction: 3,
            kind: vmtp::Kind::Request,
            group_size: 1,
            group_index: 0,
            delivery_mask: 0,
            message_len: 1000,
            payload_len: 1000,
        },
        payload: vec![0x11; 1000],
        timestamp: 42,
    }
    .to_bytes()
    .unwrap();
    g.throughput(Throughput::Bytes(vp.len() as u64));
    g.bench_function("vmtp_parse_and_checksum", |b| {
        b.iter(|| vmtp::Packet::parse(std::hint::black_box(&vp)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_viper_segment,
    bench_router_byte_ops,
    bench_ip_per_hop_work,
    bench_ethernet_and_vmtp
);
criterion_main!(benches);
