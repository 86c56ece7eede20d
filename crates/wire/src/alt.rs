//! The header walk, and the recovery-segment-list operations for
//! Slick-Packets-style failover.
//!
//! A packet's header is its route — segments up to and including the
//! first local-delivery one, at most 48 — and, when the local segment
//! carries a descriptor, the **recovery segment list** it counts, which
//! rides between the route and the user data:
//!
//! ```text
//! [ seg 1 ][ … ][ seg N (local, ALT marker: count) ][ rec 1 ][ … ][ rec C ][ data ][ trailer ]
//! ```
//!
//! One walk reads that layout, and it is the only code that does: the
//! host's scan, the owned packet parse and the two failover operations
//! here all go through it.
//!
//! Each primary segment's [`AltBranch`](crate::viper::AltBranch) names an alternate output port
//! and a splice index into that list. When the router owning a primary
//! segment finds its next hop unreachable, it rebuilds the packet as
//!
//! ```text
//! [ rec j ][ … ][ rec z ][ data ][ trailer ]
//! ```
//!
//! where `j` is the splice index and `z` is the first local-delivery
//! recovery segment at or after `j` — the detour route — and transmits
//! it out the alternate port. The remaining primary segments and the
//! rest of the recovery list are discarded: recovery segments carry no
//! alternates of their own (the DAG is depth-1), so a diverted packet is
//! a plain legacy packet from the landing router onward.
//!
//! A router walks only on the failure path (and once on local delivery,
//! to skip the block), so the O(route-length) cost never taxes the
//! per-hop forwarding argument of §2.

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

use crate::viper::{decode, Decoded, PORT_LOCAL};
use crate::{Error, Result, VIPER_MAX_SEGMENTS};

/// The layout of a packet's header, as found by [`walk`].
pub(crate) struct Layout {
    /// Route segments, the local-delivery one included.
    pub(crate) route_len: usize,
    /// Where the local-delivery segment starts.
    pub(crate) local_start: usize,
    /// The local-delivery segment, whose branch, if any, is the
    /// recovery-list descriptor.
    pub(crate) local: Decoded,
    /// Where the user data begins, past the recovery block.
    pub(crate) data_start: usize,
}

/// Walk the header at the front of `buf`: route segments up to and
/// including the first local-delivery one (at most
/// [`VIPER_MAX_SEGMENTS`]), then the recovery block its descriptor
/// counts. `visit` sees each segment in order with its start offset and
/// whether it belongs to the recovery block. Allocates nothing.
pub(crate) fn walk(buf: &[u8], mut visit: impl FnMut(usize, &Decoded, bool)) -> Result<Layout> {
    let mut at = 0usize;
    let mut route_len = 0usize;
    let (local_start, local) = loop {
        let seg = decode(buf.get(at..).unwrap_or_default())?;
        // Counted after the decode so a route of exactly 48 segments
        // passes and 49 is refused even when the 49th is the local one.
        route_len += 1;
        if route_len > VIPER_MAX_SEGMENTS {
            return Err(Error::TooManySegments);
        }
        visit(at, &seg, false);
        let start = at;
        at += seg.len;
        if seg.port == PORT_LOCAL {
            break (start, seg);
        }
    };
    let count = local.alt.map_or(0, |d| d.port);
    let data_start = walk_block(buf, at, count, |start, seg| visit(start, seg, true))?;
    Ok(Layout {
        route_len,
        local_start,
        local,
        data_start,
    })
}

/// Walk the `count` segments starting at offset `at` (at most
/// [`VIPER_MAX_SEGMENTS`]), returning the offset after the last one.
fn walk_block(
    buf: &[u8],
    mut at: usize,
    count: u8,
    mut visit: impl FnMut(usize, &Decoded),
) -> Result<usize> {
    if count as usize > VIPER_MAX_SEGMENTS {
        return Err(Error::TooManySegments);
    }
    for _ in 0..count {
        let seg = decode(buf.get(at..).unwrap_or_default())?;
        visit(at, &seg);
        at += seg.len;
    }
    Ok(at)
}

/// Total encoded length of the `count`-segment recovery block at the
/// front of `packet`. Used to skip the block on local delivery, so the
/// delivered bytes start at the user data.
pub fn recovery_block_len(packet: &[u8], count: u8) -> Result<usize> {
    walk_block(packet, 0, count, |_, _| {})
}

/// Rebuild a packet onto its recovery detour.
///
/// `packet` must be the bytes *after* the failed hop's segment was
/// stripped: the remaining primary route (ending with the local
/// segment whose ALT marker carries the recovery count), the recovery
/// list, then user data and trailer. Returns the diverted packet —
/// detour segments `[splice ..= first local at or after splice]`
/// followed by the bytes after the recovery block — ready to transmit
/// out the failed segment's alternate port.
///
/// Fails with [`Error::Malformed`] when the route carries no recovery
/// list, and [`Error::BadSpliceIndex`] when `splice` points outside the
/// list or past its last local-delivery terminator.
pub fn divert_onto_recovery(packet: &[u8], splice: u8) -> Result<Vec<u8>> {
    // The detour segments are contiguous in the packet: from the start
    // of entry `splice` to the end of the first local one at or after it.
    let (mut index, mut first, mut last) = (0u8, None, None);
    let layout = walk(packet, |start, seg, recovery| {
        if !recovery {
            return;
        }
        if index == splice {
            first = Some(start);
        }
        if index >= splice && last.is_none() && seg.port == PORT_LOCAL {
            last = Some(start + seg.len);
        }
        index += 1;
    })?;
    if layout.local.alt.is_none() {
        return Err(Error::Malformed);
    }
    let (Some(first), Some(last)) = (first, last) else {
        return Err(Error::BadSpliceIndex);
    };
    // The diverted packet is the detour plus everything after the block.
    let head = packet.get(first..last).ok_or(Error::Truncated)?;
    let rest = packet.get(layout.data_start..).ok_or(Error::Truncated)?;
    let mut out = Vec::with_capacity(head.len() + rest.len());
    out.extend_from_slice(head);
    out.extend_from_slice(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, PacketView};
    use crate::viper::{AltBranch, SegmentRepr};

    fn seg(port: u8) -> SegmentRepr {
        SegmentRepr::minimal(port)
    }

    fn alt_seg(port: u8, alt_port: u8, splice: u8) -> SegmentRepr {
        SegmentRepr {
            port,
            alt: Some(AltBranch {
                port: alt_port,
                splice,
            }),
            ..Default::default()
        }
    }

    /// Two-hop protected route with a two-entry recovery list.
    fn protected_packet() -> Vec<u8> {
        PacketBuilder::new()
            .segment(alt_seg(2, 3, 0))
            .segment(alt_seg(2, 3, 1))
            .segment(seg(PORT_LOCAL))
            .recovery(vec![seg(2), seg(PORT_LOCAL)])
            .payload(b"data".to_vec())
            .build()
            .unwrap()
    }

    #[test]
    fn divert_at_first_hop_takes_full_detour() {
        let mut pkt = protected_packet();
        // Router 1 strips its segment, then finds the next hop down.
        let stripped = crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        assert_eq!(stripped.alt, Some(AltBranch { port: 3, splice: 0 }));
        let diverted = divert_onto_recovery(&pkt, 0).unwrap();
        let view = PacketView::parse(&diverted).unwrap();
        assert_eq!(
            view.route.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![2, PORT_LOCAL]
        );
        assert!(
            view.recovery.is_empty(),
            "detour carries no recovery of its own"
        );
        assert_eq!(view.data(&diverted), b"data");
    }

    #[test]
    fn divert_at_last_hop_splices_to_terminator() {
        let mut pkt = protected_packet();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        let diverted = divert_onto_recovery(&pkt, 1).unwrap();
        let view = PacketView::parse(&diverted).unwrap();
        assert_eq!(
            view.route.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![PORT_LOCAL]
        );
        assert_eq!(view.data(&diverted), b"data");
    }

    #[test]
    fn splice_one_past_list_rejected() {
        let mut pkt = protected_packet();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        // The recovery list has two entries; splice 2 is one past it.
        assert_eq!(
            divert_onto_recovery(&pkt, 2).unwrap_err(),
            Error::BadSpliceIndex
        );
    }

    #[test]
    fn unprotected_route_cannot_divert() {
        let mut pkt = PacketBuilder::new()
            .segment(seg(2))
            .segment(seg(PORT_LOCAL))
            .payload(b"x".to_vec())
            .build()
            .unwrap();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        assert_eq!(divert_onto_recovery(&pkt, 0).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn recovery_block_len_spans_the_block() {
        let pkt = protected_packet();
        let PacketView {
            route,
            recovery,
            data_start,
            ..
        } = PacketView::parse(&pkt).unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(recovery.len(), 2);
        // The block starts right after the (alt-marked) local segment.
        let route_len: usize = route
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == route.len() - 1 {
                    // Reprs are normalized (descriptor removed); the wire
                    // local segment carries the two-byte suffix.
                    s.buffer_len() + crate::viper::ALT_SUFFIX_LEN
                } else {
                    s.buffer_len()
                }
            })
            .sum();
        let len = recovery_block_len(&pkt[route_len..], 2).unwrap();
        assert_eq!(route_len + len, data_start);
    }

    #[test]
    fn hostile_divert_never_panics() {
        for len in 0..32 {
            let junk = vec![0xFFu8; len];
            let _ = divert_onto_recovery(&junk, 0);
            let _ = recovery_block_len(&junk, 3);
        }
    }
}
