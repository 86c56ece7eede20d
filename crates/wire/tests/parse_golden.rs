//! The parse side, pinned.
//!
//! Every public entry that reads a VIPER header or trailer promises the
//! same answer for the same bytes: a router, a host and the owned edge
//! API classify a packet alike, and a hostile one is refused with the
//! same [`sirpent_wire::Error`] wherever it lands. A rewrite of the
//! segment decode or the header walk is only correct if every entry
//! still accepts what it accepted, reads the same values out of it, and
//! refuses the rest with the same variant.
//!
//! [`parse_entries_match_the_recorded_digest`] builds a seeded corpus of
//! valid packets, mutates each one every way the decode can go wrong,
//! runs every input through every entry, and folds each `Ok` value and
//! each error into one constant. The constant was recorded on the decode
//! this crate shipped before the single-pass one; a change that moves it
//! has changed what some entry reports for some input.

use sirpent_wire::alt::{divert_onto_recovery, recovery_block_len};
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::packet::{
    append_return_hop_buf, reply_route, strip_front_segment_buf, truncate_packet_buf,
    PacketBuilder, PacketView, Scan,
};
use sirpent_wire::trailer::Trailer;
use sirpent_wire::viper::{AltBranch, Flags, Priority, SegmentRepr, PORT_LOCAL};

/// Recorded before the decode was rewritten; see the module docs.
const GOLDEN: u64 = 0xf8a0_a620_944d_00cd;

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(s: &mut u64, n: usize) -> usize {
    (splitmix(s) % n as u64) as usize
}

/// FNV-1a over the `Debug` form of every value folded in.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, tag: &str, value: impl core::fmt::Debug) {
        let text = format!("{tag}:{value:?};");
        self.0 = text.bytes().fold(self.0, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    }
}

/// A segment to `port` with a `token`-byte token, an `info`-byte
/// `portInfo` (14 is an Ethernet header, 8 a compressed one) and an
/// optional branch `(alt_port, splice)`.
fn seg(port: u8, token: usize, info: usize, alt: Option<(u8, u8)>) -> SegmentRepr {
    SegmentRepr {
        port,
        flags: Flags {
            vnt: port != PORT_LOCAL && info == 0 && alt.is_none(),
            dib: port & 1 == 1,
            rpf: port & 2 == 2,
            tree: false,
        },
        priority: Priority::new(port >> 4),
        port_token: vec![port; token],
        port_info: vec![port ^ 0x5A; info],
        alt: alt.map(|(port, splice)| AltBranch { port, splice }),
    }
}

type Shape = (Vec<SegmentRepr>, Vec<SegmentRepr>);

/// The boundaries, written out: 254/255-byte and escaped fields, routes
/// protected by one or two detours, and 48 segments of route or of
/// recovery list.
fn written() -> Vec<Shape> {
    let local = |info| seg(PORT_LOCAL, 0, info, None);
    let plain = |port| seg(port, 0, 0, None);
    let branch = |alt_port, splice| seg(2, 0, 0, Some((alt_port, splice)));
    let full: Vec<SegmentRepr> = (1..48).map(plain).chain([local(0)]).collect();
    let fields = [
        (255, 255),
        (300, 0),
        (254, 254),
        (16, 14),
        (32, 8),
        (0, 600),
    ];
    let fields = fields
        .iter()
        .zip(1..)
        .map(|(&(token, info), port)| seg(port, token, info, None));
    vec![
        (vec![local(0)], vec![]),
        (vec![plain(3), plain(1), local(2)], vec![]),
        (fields.chain([local(1)]).collect(), vec![]),
        (
            vec![branch(3, 0), branch(3, 1), local(0)],
            vec![plain(2), local(0)],
        ),
        (
            vec![branch(5, 0), plain(6), branch(8, 2), local(14)],
            vec![plain(6), local(0), seg(7, 16, 14, None), local(0)],
        ),
        (full.clone(), vec![]),
        (vec![branch(3, 47), local(0)], full),
    ]
}

/// Up to six transit hops of mixed tokens and `portInfo`, sometimes
/// protected by a recovery list that some of them branch into.
fn drawn(s: &mut u64) -> Shape {
    let any = |s: &mut u64, port: u8| {
        let (token, info) = ([0, 0, 16, 32][below(s, 4)], [0, 0, 8, 14][below(s, 4)]);
        seg(port, token, info, None)
    };
    let hops = below(s, 7);
    let mut route: Vec<SegmentRepr> = (0..hops)
        .map(|_| {
            let port = 1 + below(s, 255) as u8;
            any(s, port)
        })
        .collect();
    route.push(seg(PORT_LOCAL, 0, below(s, 3), None));
    let mut recovery = Vec::new();
    if hops > 0 && below(s, 2) == 0 {
        let n = 1 + below(s, 4);
        recovery = (0..n).map(|i| any(s, 10 + i as u8)).collect();
        recovery.push(seg(PORT_LOCAL, 0, 0, None));
        for hop in route.iter_mut().take(hops) {
            if below(s, 2) == 0 {
                let (port, splice) = (1 + below(s, 255) as u8, below(s, n + 1) as u8);
                hop.flags.vnt = false;
                hop.alt = Some(AltBranch { port, splice });
            }
        }
    }
    (route, recovery)
}

/// Carry `packet` through its transit routers as each one would: strip
/// the front segment, append the return hop (sometimes onto an Ethernet
/// arrival network, sometimes with a 300-byte escaped token), and at one
/// drawn hop truncate. Returns the packet after every hop.
fn travelled(packet: &[u8], s: &mut u64) -> Vec<Vec<u8>> {
    let mut pkt = PacketBuf::from(packet);
    let mut stages = Vec::new();
    let truncate_at = below(s, 6);
    for hop in 0..8 {
        match strip_front_segment_buf(&mut pkt) {
            Ok(front) if front.port() != PORT_LOCAL => {
                let len = front.port_token().len();
                let token = if below(s, 5) == 0 { 300 } else { len };
                let return_hop = seg(1 + below(s, 255) as u8, token, 14 * below(s, 2), None);
                append_return_hop_buf(&mut pkt, return_hop).expect("return hop fits");
            }
            _ => break,
        }
        if hop == truncate_at {
            let keep = pkt.len().saturating_sub(1 + below(s, 12));
            truncate_packet_buf(&mut pkt, keep);
        }
        stages.push(pkt.to_vec());
    }
    stages
}

/// Every single-site mutation of `base` the decode can trip on, at the
/// first three segments, the local one and its neighbours, and the last.
fn mutations(base: &[u8], s: &mut u64) -> Vec<Vec<u8>> {
    let mut segs = Vec::new();
    let mut at = 0;
    while let Ok((repr, used)) = SegmentRepr::parse_prefix(&base[at..]) {
        segs.push((at, repr, used));
        at += used;
    }
    let local_at = segs.iter().position(|(_, r, _)| r.port == PORT_LOCAL);
    let mut sites: Vec<usize> = (0..3).chain([segs.len().saturating_sub(1)]).collect();
    if let Some(l) = local_at {
        sites.extend([l.saturating_sub(1), l, l + 1]);
    }
    sites.sort_unstable();
    sites.dedup();

    let mut out = Vec::new();
    let mut edit = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut m = base.to_vec();
        f(&mut m);
        out.push(m);
    };
    for (at, repr, len) in sites.iter().filter_map(|&i| segs.get(i)) {
        let (at, len) = (*at, *len);
        let token_field = repr.port_token.len() + if repr.port_token.len() > 254 { 4 } else { 0 };
        // Escape either length byte, the extended word inserted where it
        // belongs or written over what is there.
        for ext in [0u32, 1, 254, 255, 256, 65_536, 1 << 31, u32::MAX] {
            for (len_byte, word_at) in [(at + 1, at + 4), (at, at + 4 + token_field)] {
                edit(&|m| {
                    m[len_byte] = 255;
                    let word_at = word_at.min(m.len());
                    m.splice(word_at..word_at, ext.to_be_bytes());
                });
                edit(&|m| {
                    m[len_byte] = 255;
                    for (slot, b) in m.iter_mut().skip(word_at).zip(ext.to_be_bytes()) {
                        *slot = b;
                    }
                });
            }
        }
        for v in [0u8, 1, 2, 14, 253, 254] {
            edit(&|m| m[at] = v);
            edit(&|m| m[at + 1] = v);
        }
        // The ALT marker set and cleared.
        edit(&|m| m[at + 3] |= 0x90);
        edit(&|m| m[at + 3] &= !0x90);
        if repr.alt.is_some() {
            // A marked segment's suffix: alternate port (the recovery
            // count on the local segment), then splice.
            for v in [0u8, 1, 2, 3, 4, 46, 47, 48, 49, 255] {
                edit(&|m| m[at + len - 2] = v);
                edit(&|m| m[at + len - 1] = v);
            }
        } else if repr.port == PORT_LOCAL {
            // An unprotected local segment given a descriptor.
            for count in [0u8, 1, 2, 48, 49, 255] {
                edit(&|m| {
                    m[at + 3] |= 0x90;
                    m.splice(at + len..at + len, [count, 0]);
                });
            }
        }
    }
    for _ in 0..12 {
        let (at, byte) = (below(s, base.len()), 1 + below(s, 255) as u8);
        edit(&|m| m[at] ^= byte);
        let (at, bit) = (below(s, base.len()), below(s, 8));
        edit(&|m| m[at] ^= 1 << bit);
    }
    out
}

/// Run `bytes` through every public parse entry and fold the answers.
fn run(d: &mut Digest, bytes: &[u8]) {
    d.fold("prefix", SegmentRepr::parse_prefix(bytes));
    // The router's per-hop strip to the local segment, following each
    // branch the way a router with a dead next hop would.
    let mut pkt = PacketBuf::from(bytes);
    for _ in 0..50 {
        let view = match strip_front_segment_buf(&mut pkt) {
            Ok(view) => view,
            Err(e) => {
                d.fold("strip.err", e);
                break;
            }
        };
        d.fold("strip", (view.encoded_len(), view.to_repr(), view.port()));
        let (token, info) = (view.port_token(), view.port_info());
        d.fold(
            "strip.fields",
            (view.flags(), view.priority(), view.alt(), token, info),
        );
        if let Some(ab) = view.alt() {
            d.fold("divert", divert_onto_recovery(pkt.as_slice(), ab.splice));
        }
        if view.port() == PORT_LOCAL {
            let count = view.alt().map_or(0, |a| a.port);
            d.fold("block", recovery_block_len(pkt.as_slice(), count));
            break;
        }
    }
    d.fold("strip.rest", pkt.len());
    d.fold("scan", Scan::parse(bytes));
    let view = PacketView::parse(bytes);
    d.fold("view", &view);
    d.fold("reply", view.as_ref().map(reply_route));
    d.fold("trailer", Trailer::parse(bytes));
    for v in [0u8, 1, 2, 3, 47, 48, 49, 255] {
        d.fold("divert.raw", divert_onto_recovery(bytes, v));
        d.fold("block.raw", recovery_block_len(bytes, v));
    }
}

#[test]
fn parse_entries_match_the_recorded_digest() {
    let mut s = 0x005E_ED0F_C0DE_u64;
    let mut shapes = written();
    for _ in 0..32 {
        shapes.push(drawn(&mut s));
    }
    let mut bases = Vec::new();
    for (route, recovery) in shapes {
        let payload: Vec<u8> = (0..below(&mut s, 64))
            .map(|_| splitmix(&mut s) as u8)
            .collect();
        let packet = PacketBuilder::new()
            .without_mtu_check()
            .route(route)
            .recovery(recovery)
            .payload(payload)
            .build()
            .expect("corpus packets are valid");
        bases.extend(travelled(&packet, &mut s));
        bases.push(packet);
    }

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for base in &bases {
        for cut in 0..=base.len() {
            run(&mut d, &base[..cut]);
        }
        for m in mutations(base, &mut s) {
            run(&mut d, &m);
        }
    }
    // Hostile junk: uniform fills and drawn noise.
    for len in 0..40 {
        for fill in [0x00u8, 0x90, 0xFF] {
            run(&mut d, &vec![fill; len]);
        }
        let noise: Vec<u8> = (0..len * 3).map(|_| splitmix(&mut s) as u8).collect();
        run(&mut d, &noise);
    }
    assert_eq!(d.0, GOLDEN, "parse answers changed: {:#018x}", d.0);
}
