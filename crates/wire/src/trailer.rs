//! The Sirpent packet trailer.
//!
//! "Each Sirpent packet is structured as a sequence of header segments
//! followed by user data, followed by the Sirpent trailer" (§2). As a
//! packet traverses each router, the router strips the leading header
//! segment and "appends the return port and network header fields to the
//! end of the packet", already modified to constitute a correct *return*
//! hop. The final receiver walks the trailer backwards to reconstruct a
//! route to the source without any routing knowledge of its own — a
//! network-independent reversal (§2).
//!
//! ## Encoding (this reproduction's concretization)
//!
//! The paper does not pin an exact trailer byte layout beyond "a length
//! field (not shown) indicates the size of the Ethernet header, allowing
//! network-independent manipulation of the header/trailer segments". We
//! encode each trailer entry as
//!
//! ```text
//! [ entry payload … ][ len: u16 BE ][ kind: u8 ]
//! ```
//!
//! so it can be *appended* in O(payload) and *walked backwards* from the
//! end of the frame (link layers delimit frames, so the packet end is
//! known; Sirpent carries no explicit length, §2). The source lays down a
//! zero-length **base** entry when building the packet, which terminates
//! the backwards walk; everything before the base is user data (possibly
//! null-padded, which the base boundary makes unambiguous).
//!
//! Entry kinds:
//! * `Base` — boundary marker written by the source.
//! * `ReturnHop` — a reversed header segment appended by a router.
//! * `Truncated` — "a special segment … which is not a legal Sirpent
//!   header segment, indicating that the packet has been truncated" (§2),
//!   appended when a cut-through router discovers mid-flight that the
//!   packet exceeds the next hop's MTU.

use crate::buf::PacketBuf;
use crate::viper::{decode, Decoded, SegmentRef, SegmentRepr};
use crate::{Error, Result};

/// Bytes of fixed framing per entry (u16 length + u8 kind).
pub const ENTRY_OVERHEAD: usize = 3;

/// Wire values for entry kinds.
mod kind {
    pub const BASE: u8 = 0;
    pub const RETURN_HOP: u8 = 1;
    pub const TRUNCATED: u8 = 2;
}

/// One entry of the Sirpent trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// The boundary marker laid down by the sending host.
    Base,
    /// A return-hop header segment appended by a router. The segment is a
    /// fully-formed VIPER segment whose `port` is the *return* port and
    /// whose `port_info` has already had its network-specific fields
    /// reversed (e.g. Ethernet src/dst swapped).
    ReturnHop(SegmentRepr),
    /// Truncation marker carrying the number of payload bytes that were
    /// cut off, as known to the truncating router.
    Truncated {
        /// How many bytes were dropped from the tail of the packet.
        lost_bytes: u32,
    },
}

impl Entry {
    /// Bytes appended by [`Entry::append_to_buf`].
    pub fn encoded_len(&self) -> usize {
        self.payload_len() + ENTRY_OVERHEAD
    }

    fn payload_len(&self) -> usize {
        match self {
            Entry::Base => 0,
            Entry::ReturnHop(seg) => seg.buffer_len(),
            Entry::Truncated { .. } => 4,
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            Entry::Base => kind::BASE,
            Entry::ReturnHop(_) => kind::RETURN_HOP,
            Entry::Truncated { .. } => kind::TRUNCATED,
        }
    }

    /// Append this entry to the end of a packet buffer.
    ///
    /// Fails with [`Error::TrailerPayloadTooLong`] when the payload
    /// exceeds the u16 length field; the packet is left untouched.
    pub(crate) fn append_to(&self, packet: &mut Vec<u8>) -> Result<()> {
        let plen = checked(self.payload_len())?;
        match self {
            Entry::Base => {}
            Entry::ReturnHop(seg) => {
                let at = packet.len();
                packet.resize(at + plen, 0);
                seg.emit(&mut packet[at..]).expect("sized exactly");
            }
            Entry::Truncated { lost_bytes } => {
                packet.extend_from_slice(&lost_bytes.to_be_bytes());
            }
        }
        packet.extend_from_slice(&(plen as u16).to_be_bytes());
        packet.push(self.kind_byte());
        Ok(())
    }

    /// Append this entry to a shared [`crate::buf::PacketBuf`]: in-place
    /// (no copy, no allocation) in the steady per-hop state where the
    /// router uniquely owns the packet.
    ///
    /// Fails with [`Error::TrailerPayloadTooLong`] when the payload
    /// exceeds the u16 length field; the packet is left untouched.
    pub fn append_to_buf(&self, packet: &mut PacketBuf) -> Result<()> {
        match self {
            Entry::ReturnHop(seg) => append_return_hop(seg.by_ref(), packet),
            Entry::Base => append_entry(packet, 0, kind::BASE, |_| {}),
            Entry::Truncated { lost_bytes } => append_entry(packet, 4, kind::TRUNCATED, |dst| {
                dst.copy_from_slice(&lost_bytes.to_be_bytes());
            }),
        }
    }
}

/// `plen`, if an entry payload that long fits the u16 length field of
/// the framing. A return-hop segment can exceed it via the 255/32-bit
/// length escape; writing `plen as u16` would silently corrupt the
/// backwards walk, so oversize payloads are rejected instead.
fn checked(plen: usize) -> Result<usize> {
    if plen > u16::MAX as usize {
        return Err(Error::TrailerPayloadTooLong);
    }
    Ok(plen)
}

/// Append one entry of `plen` payload bytes, which `payload` writes, and
/// its framing to `packet`.
fn append_entry(
    packet: &mut PacketBuf,
    plen: usize,
    kind: u8,
    payload: impl FnOnce(&mut [u8]),
) -> Result<()> {
    let plen = checked(plen)?;
    packet.append_with(plen + ENTRY_OVERHEAD, |dst| {
        payload(&mut dst[..plen]);
        dst[plen..plen + 2].copy_from_slice(&(plen as u16).to_be_bytes());
        dst[plen + 2] = kind;
    });
    Ok(())
}

/// Append a return-hop entry for `seg` — the bytes
/// `Entry::ReturnHop` of the same segment appends — to a shared
/// [`PacketBuf`], in place when the router uniquely owns the packet,
/// with the segment's fields borrowed rather than owned: a router
/// appends its return hop without allocating.
///
/// Fails with [`Error::TrailerPayloadTooLong`] when the segment exceeds
/// the u16 length field; the packet is left untouched.
pub fn append_return_hop(seg: SegmentRef<'_>, packet: &mut PacketBuf) -> Result<()> {
    append_entry(packet, seg.buffer_len(), kind::RETURN_HOP, |dst| {
        seg.emit(dst).expect("sized exactly");
    })
}

/// One trailer entry with its payload still in the packet: what the
/// backwards walk needs, and all a receiving host needs — a return
/// hop's payload *is* the encoded segment its reply will carry.
enum RawEntry<'a> {
    Base,
    /// The hop's encoded segment and its decode, checked to fill the
    /// payload exactly.
    ReturnHop(&'a [u8], Decoded),
    Truncated {
        lost_bytes: u32,
    },
}

impl<'a> RawEntry<'a> {
    fn parse_backwards(buffer: &'a [u8], end: usize) -> Result<(RawEntry<'a>, usize)> {
        if end < ENTRY_OVERHEAD || end > buffer.len() {
            return Err(Error::Truncated);
        }
        let kind_b = buffer[end - 1];
        let plen = u16::from_be_bytes([buffer[end - 3], buffer[end - 2]]) as usize;
        let payload_end = end - ENTRY_OVERHEAD;
        if payload_end < plen {
            return Err(Error::Truncated);
        }
        let start = payload_end - plen;
        let payload = &buffer[start..payload_end];
        let entry = match kind_b {
            kind::BASE => {
                if plen != 0 {
                    return Err(Error::Malformed);
                }
                RawEntry::Base
            }
            kind::RETURN_HOP => {
                let seg = decode(payload)?;
                if seg.len != plen {
                    return Err(Error::Malformed);
                }
                RawEntry::ReturnHop(payload, seg)
            }
            kind::TRUNCATED => {
                if plen != 4 {
                    return Err(Error::Malformed);
                }
                RawEntry::Truncated {
                    lost_bytes: u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]),
                }
            }
            other => return Err(Error::UnknownTrailerKind(other)),
        };
        Ok((entry, start))
    }
}

/// Walk the trailer backwards from the end of `buffer` until the base
/// marker or a truncation marker, handing each return hop's encoded
/// segment and its decode to `hop` as it is met — last router first, which is already
/// return-route order. Returns the truncation marker's loss count, if
/// one ended the walk, and the offset where the trailer begins.
pub(crate) fn walk_backwards(
    buffer: &[u8],
    mut hop: impl FnMut(&[u8], &Decoded),
) -> Result<(Option<u32>, usize)> {
    let mut end = buffer.len();
    loop {
        let (entry, start) = RawEntry::parse_backwards(buffer, end).map_err(|e| match e {
            Error::Truncated => Error::MissingTrailerBase,
            other => other,
        })?;
        match entry {
            RawEntry::Base => return Ok((None, start)),
            RawEntry::ReturnHop(bytes, seg) => hop(bytes, &seg),
            RawEntry::Truncated { lost_bytes } => return Ok((Some(lost_bytes), start)),
        }
        end = start;
    }
}

/// The fully decoded trailer of a packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trailer {
    /// Return-hop segments in the order the routers appended them
    /// (first entry = first router on the forward path).
    pub return_hops: Vec<SegmentRepr>,
    /// Whether a truncation marker was present, and how many bytes it
    /// reported lost.
    pub truncated: Option<u32>,
    /// Offset within the packet buffer where the trailer begins (the
    /// start of the base entry's framing). User data ends at or before
    /// this offset.
    pub start_offset: usize,
}

impl Trailer {
    /// Walk the trailer backwards from the end of `buffer` until the base
    /// marker.
    ///
    /// If a **truncation marker** is encountered, the walk stops there:
    /// everything earlier in the packet was cut mid-flight and is
    /// unreliable, so the trailer reports `truncated = Some(..)` together
    /// with only the return hops appended by routers *after* the
    /// truncating one.
    pub fn parse(buffer: &[u8]) -> Result<Trailer> {
        let mut return_hops: Vec<SegmentRepr> = Vec::new();
        let (truncated, start_offset) =
            walk_backwards(buffer, |bytes, seg| return_hops.push(seg.to_repr(bytes)))?;
        return_hops.reverse();
        Ok(Trailer {
            return_hops,
            truncated,
            start_offset,
        })
    }

    /// Construct the **return route** per §2: "the receiver locates the
    /// beginning of the trailer of (former) header segments and copies
    /// each segment into a separate return address area in *reverse
    /// order*". Because each router already reversed the network-specific
    /// fields and substituted the return port, reversal here is entirely
    /// network-independent.
    pub fn return_route(&self) -> Vec<SegmentRepr> {
        let mut route = self.return_hops.clone();
        route.reverse();
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viper::{Flags, Priority};

    fn hop(port: u8) -> SegmentRepr {
        SegmentRepr {
            port,
            flags: Flags::default(),
            priority: Priority::NORMAL,
            port_token: vec![port; 8],
            port_info: vec![port ^ 0xFF; 14],
            alt: None,
        }
    }

    #[test]
    fn empty_trailer_parses() {
        let mut buf = b"data".to_vec();
        Entry::Base.append_to(&mut buf).unwrap();
        let t = Trailer::parse(&buf).unwrap();
        assert!(t.return_hops.is_empty());
        assert_eq!(t.truncated, None);
        assert_eq!(t.start_offset, 4);
    }

    #[test]
    fn hops_append_and_reverse() {
        let mut buf = b"payload".to_vec();
        Entry::Base.append_to(&mut buf).unwrap();
        for p in [1u8, 2, 3] {
            Entry::ReturnHop(hop(p)).append_to(&mut buf).unwrap();
        }
        let t = Trailer::parse(&buf).unwrap();
        assert_eq!(
            t.return_hops.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Return route is reversed: last router first.
        assert_eq!(
            t.return_route().iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        assert_eq!(t.start_offset, 7);
    }

    #[test]
    fn truncation_marker_detected() {
        // A truncating router cuts the tail (losing earlier trailer
        // entries) and appends the marker; later routers still append
        // their return hops after it.
        let mut buf = vec![0xAA; 20]; // remains of the cut packet
        Entry::Truncated { lost_bytes: 512 }
            .append_to(&mut buf)
            .unwrap();
        Entry::ReturnHop(hop(9)).append_to(&mut buf).unwrap();
        let t = Trailer::parse(&buf).unwrap();
        assert_eq!(t.truncated, Some(512));
        assert_eq!(t.return_hops.len(), 1, "hops after the marker survive");
        assert_eq!(t.return_hops[0].port, 9);
        assert_eq!(t.start_offset, 20);
    }

    #[test]
    fn missing_base_is_detected() {
        let mut buf = Vec::new();
        Entry::ReturnHop(hop(1)).append_to(&mut buf).unwrap();
        // No base entry anywhere — walk must fail, not loop or panic.
        assert_eq!(Trailer::parse(&buf).unwrap_err(), Error::MissingTrailerBase);
    }

    #[test]
    fn unknown_kind_reported() {
        let mut buf = Vec::new();
        Entry::Base.append_to(&mut buf).unwrap();
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.push(77);
        assert_eq!(
            Trailer::parse(&buf).unwrap_err(),
            Error::UnknownTrailerKind(77)
        );
    }

    #[test]
    fn null_padding_before_trailer_is_harmless() {
        // §2 footnote: "A packet can be padded with null bytes between the
        // end of the actual data and beginning of the Sirpent trailer
        // without confusion."
        let mut buf = b"data".to_vec();
        buf.extend_from_slice(&[0u8; 32]); // padding
        Entry::Base.append_to(&mut buf).unwrap();
        Entry::ReturnHop(hop(4)).append_to(&mut buf).unwrap();
        let t = Trailer::parse(&buf).unwrap();
        assert_eq!(t.return_hops.len(), 1);
        assert_eq!(t.start_offset, 4 + 32);
    }

    // A 255-escaped port token of T bytes encodes as FIXED_LEN(4) +
    // (4 + T) segment bytes, so T = 65527 lands the entry payload on
    // exactly u16::MAX.
    fn giant_hop(token_len: usize) -> SegmentRepr {
        SegmentRepr {
            port: 9,
            flags: Flags::default(),
            priority: Priority::NORMAL,
            port_token: vec![0xAB; token_len],
            port_info: Vec::new(),
            alt: None,
        }
    }

    #[test]
    fn payload_at_u16_boundary_frames_and_walks() {
        let entry = Entry::ReturnHop(giant_hop(65527));
        assert_eq!(entry.encoded_len(), u16::MAX as usize + ENTRY_OVERHEAD);
        let mut buf = b"data".to_vec();
        Entry::Base.append_to(&mut buf).unwrap();
        entry.append_to(&mut buf).unwrap();
        let t = Trailer::parse(&buf).unwrap();
        assert_eq!(t.return_hops.len(), 1);
        assert_eq!(t.return_hops[0].port_token.len(), 65527);
    }

    #[test]
    fn payload_past_u16_boundary_rejected_packet_untouched() {
        let entry = Entry::ReturnHop(giant_hop(65528)); // plen = 65536
        let mut buf = b"data".to_vec();
        Entry::Base.append_to(&mut buf).unwrap();
        let before = buf.clone();
        assert_eq!(
            entry.append_to(&mut buf).unwrap_err(),
            Error::TrailerPayloadTooLong
        );
        assert_eq!(buf, before, "failed append must leave the packet intact");

        let mut pb = crate::buf::PacketBuf::from_vec(before.clone());
        assert_eq!(
            entry.append_to_buf(&mut pb).unwrap_err(),
            Error::TrailerPayloadTooLong
        );
        assert_eq!(pb.as_slice(), &before[..]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn trailer_roundtrip(ports in proptest::collection::vec(any::<u8>(), 0..20),
                             data in proptest::collection::vec(any::<u8>(), 0..100)) {
            let mut buf = data.clone();
            Entry::Base.append_to(&mut buf).unwrap();
            for &p in &ports {
                Entry::ReturnHop(SegmentRepr::minimal(p)).append_to(&mut buf).unwrap();
            }
            let t = Trailer::parse(&buf).unwrap();
            prop_assert_eq!(t.start_offset, data.len());
            let got: Vec<u8> = t.return_hops.iter().map(|s| s.port).collect();
            prop_assert_eq!(got, ports.clone());
            let rev: Vec<u8> = t.return_route().iter().map(|s| s.port).collect();
            let mut want = ports.clone();
            want.reverse();
            prop_assert_eq!(rev, want);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Trailer::parse(&bytes);
        }
    }
}
