//! Recovery-segment-list operations for Slick-Packets-style failover.
//!
//! A packet built with alternates carries, between the terminating
//! local-delivery segment of its primary route and the user data, a
//! **recovery segment list**:
//!
//! ```text
//! [ seg 1 ][ … ][ seg N (local, ALT marker: count) ][ rec 1 ][ … ][ rec C ][ data ][ trailer ]
//! ```
//!
//! Each primary segment's [`AltBranch`] names an alternate output port
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
//! These walks run only on the failure path (and once on local
//! delivery, to skip the block), so their O(route-length) cost never
//! taxes the per-hop forwarding argument of §2.

use crate::viper::{Segment, PORT_LOCAL};
use crate::{Error, Result, VIPER_MAX_SEGMENTS};

/// Byte span and output port of one walked segment.
struct Span {
    start: usize,
    end: usize,
    port: u8,
}

/// Walk `count` consecutive segments starting at offset `at`, returning
/// their spans and the offset of the first byte after the last one.
fn walk_segments(packet: &[u8], mut at: usize, count: usize) -> Result<(Vec<Span>, usize)> {
    if count > VIPER_MAX_SEGMENTS {
        return Err(Error::TooManySegments);
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let rest = packet.get(at..).ok_or(Error::Truncated)?;
        let seg = Segment::new_checked(rest)?;
        let len = seg.total_len();
        spans.push(Span {
            start: at,
            end: at + len,
            port: seg.port(),
        });
        at += len;
    }
    Ok((spans, at))
}

/// Total encoded length of the `count`-segment recovery block at the
/// front of `packet`. Used to skip the block on local delivery, so the
/// delivered bytes start at the user data.
pub fn recovery_block_len(packet: &[u8], count: u8) -> Result<usize> {
    let (_, end) = walk_segments(packet, 0, count as usize)?;
    Ok(end)
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
    // Walk the remaining primary route to its terminator to find the
    // recovery descriptor.
    let mut at = 0usize;
    let mut hops = 0usize;
    let descriptor = loop {
        let rest = packet.get(at..).ok_or(Error::Truncated)?;
        let seg = Segment::new_checked(rest)?;
        at += seg.total_len();
        hops += 1;
        if hops > VIPER_MAX_SEGMENTS {
            return Err(Error::TooManySegments);
        }
        if seg.port() == PORT_LOCAL {
            break seg.alt();
        }
    };
    let count = match descriptor {
        Some(d) => d.port as usize,
        None => return Err(Error::Malformed),
    };
    let (spans, rec_end) = walk_segments(packet, at, count)?;
    let j = splice as usize;
    let first = spans.get(j).ok_or(Error::BadSpliceIndex)?;
    let z = spans
        .iter()
        .skip(j)
        .position(|s| s.port == PORT_LOCAL)
        .map(|off| j + off)
        .ok_or(Error::BadSpliceIndex)?;
    let last = spans.get(z).ok_or(Error::BadSpliceIndex)?;
    // The detour segments are contiguous in the original buffer; the
    // diverted packet is that window plus everything after the block.
    let head = packet.get(first.start..last.end).ok_or(Error::Truncated)?;
    let rest = packet.get(rec_end..).ok_or(Error::Truncated)?;
    let mut out = Vec::with_capacity(head.len() + rest.len());
    out.extend_from_slice(head);
    out.extend_from_slice(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
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
        let (route, recovery, data_at) = crate::packet::parse_route_full(&diverted).unwrap();
        assert_eq!(
            route.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![2, PORT_LOCAL]
        );
        assert!(recovery.is_empty(), "detour carries no recovery of its own");
        assert_eq!(&diverted[data_at..data_at + 4], b"data");
    }

    #[test]
    fn divert_at_last_hop_splices_to_terminator() {
        let mut pkt = protected_packet();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        crate::packet::oracle::strip_front_segment(&mut pkt).unwrap();
        let diverted = divert_onto_recovery(&pkt, 1).unwrap();
        let (route, _, data_at) = crate::packet::parse_route_full(&diverted).unwrap();
        assert_eq!(
            route.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![PORT_LOCAL]
        );
        assert_eq!(&diverted[data_at..data_at + 4], b"data");
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
        let (route, recovery, data_at) = crate::packet::parse_route_full(&pkt).unwrap();
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
        assert_eq!(route_len + len, data_at);
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
