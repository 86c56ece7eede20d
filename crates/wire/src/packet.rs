//! Whole-packet assembly and the per-router byte operations.
//!
//! A Sirpent packet on the wire (after any link header) is
//!
//! ```text
//! [ seg 1 ][ seg 2 ] … [ seg N ][ user data ][ trailer … ]
//! ```
//!
//! where `seg i` is the VIPER header segment for the *i*-th router on the
//! route and the last segment addresses the destination host itself with
//! the reserved local port 0 (§2.2: "Sirpent unifies inter-host and
//! intra-host addressing" — the final segment's `portInfo` may select the
//! transport endpoint within the host).
//!
//! Routers never re-encode the whole packet: they **strip** the leading
//! segment, **append** a reversed return-hop entry to the trailer, and
//! forward the bytes in between untouched (§2). Those exact byte
//! operations live here so the router crate manipulates real buffers, and
//! header-overhead measurements are honest.

use crate::alt::walk;
use crate::buf::{PacketBuf, SegmentView};
use crate::trailer::{walk_backwards, Entry, Trailer, ENTRY_OVERHEAD};
use crate::viper::{AltBranch, SegmentRepr, PORT_LOCAL};
use crate::{Error, Result, VIPER_MAX_SEGMENTS, VIPER_TRANSMISSION_UNIT};

/// Builder for a fresh Sirpent packet at the sending host.
#[derive(Debug, Clone, Default)]
pub struct PacketBuilder {
    route: Vec<SegmentRepr>,
    recovery: Vec<SegmentRepr>,
    payload: Vec<u8>,
    enforce_mtu: bool,
}

impl PacketBuilder {
    /// Start building a packet.
    pub fn new() -> PacketBuilder {
        PacketBuilder {
            enforce_mtu: true,
            ..Default::default()
        }
    }

    /// Append one routing hop.
    pub fn segment(mut self, seg: SegmentRepr) -> PacketBuilder {
        self.route.push(seg);
        self
    }

    /// Append a whole route.
    pub fn route(mut self, segs: impl IntoIterator<Item = SegmentRepr>) -> PacketBuilder {
        self.route.extend(segs);
        self
    }

    /// Set the recovery segment list for Slick-Packets failover. Route
    /// segments reference entries of this list via their
    /// [`AltBranch::splice`] index; the list is encoded between the
    /// terminating local segment and the user data (see [`crate::alt`]).
    pub fn recovery(mut self, segs: impl IntoIterator<Item = SegmentRepr>) -> PacketBuilder {
        self.recovery = segs.into_iter().collect();
        self
    }

    /// Set the user data.
    pub fn payload(mut self, data: impl Into<Vec<u8>>) -> PacketBuilder {
        self.payload = data.into();
        self
    }

    /// Disable the 1500-byte transmission-unit check (used by tests that
    /// exercise MTU truncation at routers).
    pub fn without_mtu_check(mut self) -> PacketBuilder {
        self.enforce_mtu = false;
        self
    }

    /// Assemble the packet bytes: route segments, the recovery list (if
    /// any), payload, and the trailer base marker.
    pub fn build(mut self) -> Result<Vec<u8>> {
        self.validate()?;
        // Reserve room for the return-hop trailer the route will grow in
        // flight (see [`PacketBuilder::trailer_room`]).
        let mut buf =
            Vec::with_capacity(self.header_len() + self.payload.len() + self.trailer_room() + 8);
        self.emit_header(&mut buf)?;
        buf.extend_from_slice(&self.payload);
        Entry::Base.append_to(&mut buf)?;
        if self.enforce_mtu && buf.len() > VIPER_TRANSMISSION_UNIT {
            return Err(Error::ExceedsTransmissionUnit);
        }
        Ok(buf)
    }

    /// Validate and encode the route once, for stamping on every packet
    /// a host sends over it: the same checks and the same header bytes as
    /// [`PacketBuilder::build`]. What is left per packet is the
    /// transmission-unit check, which [`RouteHeader::packet`] always
    /// makes; the payload and [`PacketBuilder::without_mtu_check`] play
    /// no part here.
    pub fn build_header(mut self) -> Result<RouteHeader> {
        self.validate()?;
        let mut bytes = Vec::with_capacity(self.header_len());
        self.emit_header(&mut bytes)?;
        Ok(RouteHeader {
            bytes,
            trailer_room: self.trailer_room(),
        })
    }

    /// The checks that need no encoding, then the recovery-list
    /// descriptor stamped onto the terminating local segment (count in
    /// the `port` slot, splice 0).
    fn validate(&mut self) -> Result<()> {
        if self.route.len() > VIPER_MAX_SEGMENTS || self.recovery.len() > VIPER_MAX_SEGMENTS {
            return Err(Error::TooManySegments);
        }
        if self.route.is_empty() || self.route.last().map(|s| s.port) != Some(PORT_LOCAL) {
            // Every route must terminate with a local-delivery segment.
            return Err(Error::Malformed);
        }
        self.validate_alternates()?;
        if !self.recovery.is_empty() {
            if let Some(last) = self.route.last_mut() {
                last.alt = Some(AltBranch {
                    port: self.recovery.len() as u8,
                    splice: 0,
                });
            }
        }
        Ok(())
    }

    fn header_len(&self) -> usize {
        self.route
            .iter()
            .chain(&self.recovery)
            .map(|s| s.buffer_len())
            .sum()
    }

    /// Room for the return-hop trailer the route will grow in flight:
    /// each transit hop appends roughly its own segment again (token
    /// reused, portInfo swapped for the return network header) plus the
    /// entry framing. Pre-reserving keeps every per-hop append in-place
    /// on the zero-copy path — no reallocation, no memmove, flat per-hop
    /// cost.
    fn trailer_room(&self) -> usize {
        self.route
            .iter()
            .map(|s| s.buffer_len() + RETURN_INFO_SLACK + ENTRY_OVERHEAD)
            .sum()
    }

    fn emit_header(&self, buf: &mut Vec<u8>) -> Result<()> {
        for seg in self.route.iter().chain(&self.recovery) {
            let at = buf.len();
            buf.resize(at + seg.buffer_len(), 0);
            seg.emit(&mut buf[at..])?;
        }
        Ok(())
    }

    /// Check the route/recovery cross-references before encoding: a
    /// branch needs a recovery list, every splice must land on a list
    /// entry with a local-delivery terminator at or after it, the list
    /// itself must be branch-free (the DAG is depth-1), and the
    /// builder-owned descriptor slot on the terminating segment must be
    /// free.
    fn validate_alternates(&self) -> Result<()> {
        if self.route.last().and_then(|s| s.alt).is_some() {
            return Err(Error::Malformed);
        }
        if self.recovery.iter().any(|s| s.alt.is_some()) {
            return Err(Error::Malformed);
        }
        if !self.recovery.is_empty() && self.recovery.last().map(|s| s.port) != Some(PORT_LOCAL) {
            // A terminator-less list would strand the highest splices.
            return Err(Error::Malformed);
        }
        for branch in self.route.iter().filter_map(|s| s.alt) {
            if self.recovery.is_empty() {
                return Err(Error::Malformed);
            }
            if branch.splice as usize >= self.recovery.len() {
                return Err(Error::BadSpliceIndex);
            }
        }
        Ok(())
    }

    /// Assemble the packet as a shared [`PacketBuf`] ready for the
    /// zero-copy forwarding path.
    pub fn build_buf(self) -> Result<PacketBuf> {
        self.build().map(PacketBuf::from_vec)
    }
}

/// Headroom reserved per hop for the return hop's `portInfo` growing
/// relative to the forward segment (e.g. a point-to-point forward hop
/// reversed onto an Ethernet arrival network: 14-byte header + lengths).
const RETURN_INFO_SLACK: usize = 20;

/// `SegmentRepr::minimal(PORT_LOCAL)`, encoded: the segment that ends a
/// reply route.
const MINIMAL_LOCAL: [u8; 4] = [0, 0, PORT_LOCAL, 0];

/// A route's wire header — header segments, recovery list, descriptor —
/// encoded once and stamped on every packet sent over the route. A host
/// gets one from [`PacketBuilder::build_header`] when a route is
/// installed, and one per received packet from [`Scan::parse`] (the §2
/// reply route, copied out of the trailer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteHeader {
    bytes: Vec<u8>,
    /// What [`PacketBuilder::build`] would reserve for the trailer.
    trailer_room: usize,
}

impl RouteHeader {
    /// Assemble one packet: this header, `data_len` bytes of user data
    /// written by `fill` (called on a zeroed window of exactly that
    /// length), the trailer base marker, and spare capacity for the
    /// trailer to grow into. Byte for byte what [`PacketBuilder::build`]
    /// returns for the same route and data, including the refusal of a
    /// packet over the 1500-byte transmission unit.
    pub fn packet(&self, data_len: usize, fill: impl FnOnce(&mut [u8])) -> Result<PacketBuf> {
        let data_end = self.bytes.len() + data_len;
        if data_end + ENTRY_OVERHEAD > VIPER_TRANSMISSION_UNIT {
            return Err(Error::ExceedsTransmissionUnit);
        }
        let mut buf = Vec::with_capacity(data_end + self.trailer_room + 8);
        buf.extend_from_slice(&self.bytes);
        buf.resize(data_end, 0);
        fill(&mut buf[self.bytes.len()..]);
        Entry::Base.append_to(&mut buf)?;
        Ok(PacketBuf::from_vec(buf))
    }
}

/// A fully parsed view of a Sirpent packet (owned representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketView {
    /// Remaining route: the header segments still at the front, ending
    /// with the local-delivery segment (its recovery descriptor, if any,
    /// is normalized away — see [`PacketView::recovery`]).
    pub route: Vec<SegmentRepr>,
    /// The recovery segment list encoded after the route (empty for
    /// packets without alternates).
    pub recovery: Vec<SegmentRepr>,
    /// Offset where user data begins.
    pub data_start: usize,
    /// Offset where user data ends (= trailer start; may include null
    /// padding the transport layer trims via its own length field).
    pub data_end: usize,
    /// The decoded trailer.
    pub trailer: Trailer,
}

impl PacketView {
    /// Parse a complete Sirpent packet.
    pub fn parse(buffer: &[u8]) -> Result<PacketView> {
        let (mut route, mut recovery) = (Vec::new(), Vec::new());
        let data_start = walk(buffer, |start, seg, in_recovery| {
            let repr = seg.to_repr(buffer.get(start..).unwrap_or_default());
            if in_recovery {
                recovery.push(repr);
            } else {
                route.push(repr);
            }
        })?
        .data_start;
        // The descriptor is builder-owned: a route parsed back equals the
        // one handed to [`PacketBuilder`].
        if let Some(local) = route.last_mut() {
            local.alt = None;
        }
        let trailer = Trailer::parse(buffer)?;
        if trailer.start_offset < data_start {
            return Err(Error::Malformed);
        }
        Ok(PacketView {
            route,
            recovery,
            data_start,
            data_end: trailer.start_offset,
            trailer,
        })
    }

    /// The user-data bytes of `buffer` (which must be the same buffer
    /// passed to [`PacketView::parse`]).
    pub fn data<'a>(&self, buffer: &'a [u8]) -> &'a [u8] {
        &buffer[self.data_start..self.data_end]
    }
}

/// Where the user data of a complete Sirpent packet lies, found by the
/// header walk and the backward trailer walk without allocating.
/// Accepts and rejects exactly the inputs [`PacketView::parse`] does,
/// with the same [`Error`].
pub fn data_range(buffer: &[u8]) -> Result<core::ops::Range<usize>> {
    let data_start = walk(buffer, |_, _, _| {})?.data_start;
    let (_, trailer_start) = walk_backwards(buffer, |_, _| {})?;
    if trailer_start < data_start {
        return Err(Error::Malformed);
    }
    Ok(data_start..trailer_start)
}

/// What a receiving host needs from a packet, found in one borrowed
/// pass: no segment is decoded into a [`SegmentRepr`] and nothing is
/// allocated but the reply header. Accepts and rejects exactly the
/// inputs [`PacketView::parse`] does, with the same [`Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Header segments at the front, up to and including the first
    /// local-delivery one. 1 means the packet is addressed to this host;
    /// more means a router should have seen it first.
    pub route_len: usize,
    /// Where the local-delivery segment's `portInfo` — the intra-host
    /// endpoint selector — lies in the buffer.
    pub selector: core::ops::Range<usize>,
    /// Where the user data lies in the buffer (it may include null
    /// padding the transport trims via its own length field).
    pub data: core::ops::Range<usize>,
    /// The truncation marker's loss count, if one is present.
    pub truncated: Option<u32>,
    /// The header of a reply to the source, per §2: "the receiver
    /// locates the beginning of the trailer of (former) header segments
    /// and copies each segment into a separate return address area in
    /// reverse order" — each return hop's trailer payload is already an
    /// encoded segment, so the copy is of bytes — then a minimal local
    /// segment for the peer. `Err` is the refusal
    /// [`PacketBuilder::build`] would give [`reply_route`]'s segments.
    pub reply: Result<RouteHeader>,
}

impl Scan {
    /// Scan a complete Sirpent packet.
    pub fn parse(buffer: &[u8]) -> Result<Scan> {
        let layout = walk(buffer, |_, _, _| {})?;
        let info = &layout.local.info;
        let selector = layout.local_start + info.start..layout.local_start + info.end;

        let (mut hops, mut hop_bytes, mut branches) = (0usize, 0usize, false);
        let (truncated, trailer_start) = walk_backwards(buffer, |bytes, seg| {
            hops += 1;
            branches |= seg.alt.is_some();
            hop_bytes += bytes.len();
        })?;
        if trailer_start < layout.data_start {
            return Err(Error::Malformed);
        }
        let reply = if hops + 1 > VIPER_MAX_SEGMENTS {
            Err(Error::TooManySegments)
        } else if branches {
            // A branch needs a recovery list, and a reply has none.
            Err(Error::Malformed)
        } else {
            // The walk meets the last router first: return-route order.
            let mut bytes = Vec::with_capacity(hop_bytes + MINIMAL_LOCAL.len());
            walk_backwards(buffer, |hop, _| bytes.extend_from_slice(hop))?;
            bytes.extend_from_slice(&MINIMAL_LOCAL);
            Ok(RouteHeader {
                trailer_room: bytes.len() + (hops + 1) * (RETURN_INFO_SLACK + ENTRY_OVERHEAD),
                bytes,
            })
        };
        Ok(Scan {
            route_len: layout.route_len,
            selector,
            data: layout.data_start..trailer_start,
            truncated,
            reply,
        })
    }
}

/// Router operation: strip the leading header segment off a packet,
/// leaving `packet` holding the rest (§2: "the router removes the
/// network header from the front of the packet as well as the port,
/// typeOfService and portToken fields"). O(1) on the shared
/// [`PacketBuf`] — the head offset advances, no memmove — and the
/// returned [`SegmentView`]'s variable fields borrow the shared store
/// instead of allocating.
pub fn strip_front_segment_buf(packet: &mut PacketBuf) -> Result<SegmentView> {
    let view = SegmentView::parse(packet)?;
    packet.advance(view.encoded_len());
    Ok(view)
}

/// Router operation: append a reversed return-hop segment to the trailer
/// (§2: the router "revises the network-specific portion … so that it
/// constitutes a correct return hop through this router and appends the
/// return port and network header fields to the end of the packet").
/// Appends in place when the router uniquely owns the packet (the
/// steady per-hop state).
pub fn append_return_hop_buf(packet: &mut PacketBuf, return_hop: SegmentRepr) -> Result<()> {
    Entry::ReturnHop(return_hop).append_to_buf(packet)
}

/// Router operation: mark a packet as truncated after `keep` bytes. The
/// tail is dropped (the tail watermark lowers, O(1)) and the truncation
/// marker appended in place so "the receiver can detect packet
/// truncation even when it only affects the packet trailer" (§2).
pub fn truncate_packet_buf(packet: &mut PacketBuf, keep: usize) {
    let lost = packet.len().saturating_sub(keep) as u32;
    packet.truncate(keep);
    Entry::Truncated { lost_bytes: lost }
        .append_to_buf(packet)
        .expect("4-byte payload always fits the length field");
}

/// The per-router byte operations on a plain `Vec<u8>`: the obviously
/// correct reference the proptests hold the [`PacketBuf`] path to.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Reference for [`strip_front_segment_buf`].
    pub(crate) fn strip_front_segment(packet: &mut Vec<u8>) -> Result<SegmentRepr> {
        let (repr, len) = SegmentRepr::parse_prefix(packet)?;
        packet.drain(..len);
        Ok(repr)
    }

    /// Reference for [`append_return_hop_buf`].
    pub(crate) fn append_return_hop(packet: &mut Vec<u8>, return_hop: SegmentRepr) -> Result<()> {
        Entry::ReturnHop(return_hop).append_to(packet)
    }

    /// Reference for [`truncate_packet_buf`].
    pub(crate) fn truncate_packet(packet: &mut Vec<u8>, keep: usize) {
        let lost = packet.len().saturating_sub(keep) as u32;
        packet.truncate(keep);
        Entry::Truncated { lost_bytes: lost }
            .append_to(packet)
            .expect("4-byte payload always fits the length field");
    }
}

/// Receiver operation: given a delivered packet (single local segment at
/// the front), produce the route for a **reply** back to the source. The
/// trailer hops are reversed; the local segment that addressed *us* is
/// replaced at the end of the return route by a fresh local segment for
/// the peer (constructed by the caller's transport from the original
/// first-hop information if intra-host addressing is needed).
pub fn reply_route(view: &PacketView) -> Vec<SegmentRepr> {
    let mut route = view.trailer.return_route();
    route.push(SegmentRepr::minimal(PORT_LOCAL));
    route
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::viper::Flags;

    fn seg(port: u8) -> SegmentRepr {
        SegmentRepr {
            port,
            flags: Flags {
                vnt: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn local() -> SegmentRepr {
        SegmentRepr::minimal(PORT_LOCAL)
    }

    #[test]
    fn build_and_parse_two_hop_packet() {
        let bytes = PacketBuilder::new()
            .segment(seg(3))
            .segment(seg(1))
            .segment(local())
            .payload(b"hello sirpent".to_vec())
            .build()
            .unwrap();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(view.route.len(), 3);
        assert_eq!(view.route[0].port, 3);
        assert_eq!(view.route[2].port, PORT_LOCAL);
        assert_eq!(view.data(&bytes), b"hello sirpent");
        assert!(view.trailer.return_hops.is_empty());
    }

    #[test]
    fn route_must_end_local() {
        let err = PacketBuilder::new()
            .segment(seg(3))
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Malformed);
    }

    #[test]
    fn empty_route_rejected() {
        assert_eq!(
            PacketBuilder::new()
                .payload(b"x".to_vec())
                .build()
                .unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn too_many_segments_rejected() {
        let mut b = PacketBuilder::new().without_mtu_check();
        for _ in 0..49 {
            b = b.segment(seg(1));
        }
        let err = b.segment(local()).build().unwrap_err();
        assert_eq!(err, Error::TooManySegments);
    }

    /// Emit a route of `transit` forwarding segments plus the
    /// terminating local segment as raw bytes, bypassing the builder, so
    /// the parse side's own bound is what gets exercised; then the
    /// trailer base, making it a whole packet with no data.
    fn raw_route(transit: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut emit = |s: SegmentRepr| {
            let at = buf.len();
            buf.resize(at + s.buffer_len(), 0);
            s.emit(&mut buf[at..]).unwrap();
        };
        for _ in 0..transit {
            emit(seg(1));
        }
        emit(local());
        Entry::Base.append_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn steady_state_hops_never_copy_or_reallocate() {
        // Per-hop forwarding on a uniquely-owned PacketBuf must be pure
        // offset motion: the strip advances `head`, the trailer append
        // lands in the pre-reserved tail. A COW would rebase `head` to 0
        // and a reallocation would move the store base address — assert
        // neither happens over a full 8-hop route.
        let mut b = PacketBuilder::new().without_mtu_check();
        for p in 1..=8u8 {
            b = b.segment(seg(p));
        }
        let mut pkt = b
            .segment(local())
            .payload(vec![0x5A; 600])
            .build_buf()
            .unwrap();
        let base = pkt.as_slice().as_ptr() as usize - pkt.head_offset();
        for i in 0..8 {
            let view = strip_front_segment_buf(&mut pkt).unwrap();
            let repr = view.to_repr();
            drop(view); // router drops its borrow before appending
            append_return_hop_buf(&mut pkt, repr).unwrap();
            assert!(pkt.is_unique(), "hop {i}: store must stay uniquely owned");
            assert!(pkt.head_offset() > 0, "hop {i}: COW rebased the head");
            assert_eq!(
                pkt.as_slice().as_ptr() as usize - pkt.head_offset(),
                base,
                "hop {i}: append reallocated the store"
            );
        }
    }

    #[test]
    fn parse_route_accepts_exactly_48_segments() {
        let buf = raw_route(VIPER_MAX_SEGMENTS - 1);
        let route = PacketView::parse(&buf).unwrap().route;
        assert_eq!(route.len(), VIPER_MAX_SEGMENTS);
    }

    #[test]
    fn parse_route_rejects_49_segments_even_local_terminated() {
        // Regression: the bound used to be checked before the push, so a
        // 48-transit route whose 49th segment was the terminating local
        // one slipped through one over the §2.3 budget.
        let buf = raw_route(VIPER_MAX_SEGMENTS);
        assert_eq!(PacketView::parse(&buf).unwrap_err(), Error::TooManySegments);
    }

    #[test]
    fn mtu_enforced_and_escapable() {
        let big = vec![0u8; 1600];
        let err = PacketBuilder::new()
            .segment(local())
            .payload(big.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::ExceedsTransmissionUnit);
        let ok = PacketBuilder::new()
            .without_mtu_check()
            .segment(local())
            .payload(big)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn simulated_router_pass() {
        // Emulate what one router does, then check receiver-side reversal.
        let mut pkt = PacketBuilder::new()
            .segment(seg(7))
            .segment(local())
            .payload(b"data".to_vec())
            .build()
            .unwrap();

        // Router: strip front, append reversed hop with the return port.
        let front = strip_front_segment(&mut pkt).unwrap();
        assert_eq!(front.port, 7);
        let return_hop = SegmentRepr {
            port: 2, // the port the packet arrived on
            ..front.clone()
        };
        append_return_hop(&mut pkt, return_hop).unwrap();

        // Receiver: only the local segment remains up front.
        let view = PacketView::parse(&pkt).unwrap();
        assert_eq!(view.route.len(), 1);
        assert_eq!(view.route[0].port, PORT_LOCAL);
        assert_eq!(view.data(&pkt), b"data");
        assert_eq!(view.trailer.return_hops.len(), 1);
        assert_eq!(view.trailer.return_hops[0].port, 2);

        // Reply route: reversed hops + fresh local segment.
        let reply = reply_route(&view);
        assert_eq!(reply.len(), 2);
        assert_eq!(reply[0].port, 2);
        assert_eq!(reply[1].port, PORT_LOCAL);
    }

    #[test]
    fn multi_hop_reversal_order() {
        let mut pkt = PacketBuilder::new()
            .segment(seg(10))
            .segment(seg(11))
            .segment(seg(12))
            .segment(local())
            .payload(b"p".to_vec())
            .build()
            .unwrap();
        // Three routers, arriving on ports 20, 21, 22 respectively.
        for arrive_port in [20u8, 21, 22] {
            let front = strip_front_segment(&mut pkt).unwrap();
            append_return_hop(
                &mut pkt,
                SegmentRepr {
                    port: arrive_port,
                    ..front
                },
            )
            .unwrap();
        }
        let view = PacketView::parse(&pkt).unwrap();
        let reply = reply_route(&view);
        // Return route visits the last router first.
        assert_eq!(
            reply.iter().map(|s| s.port).collect::<Vec<_>>(),
            vec![22, 21, 20, 0]
        );
    }

    #[test]
    fn truncation_roundtrip() {
        let mut pkt = PacketBuilder::new()
            .segment(local())
            .payload(vec![9u8; 100])
            .build()
            .unwrap();
        let orig = pkt.len();
        truncate_packet(&mut pkt, 40);
        // The trailer base was cut off with the tail; the walk stops at
        // the truncation marker and reports the loss.
        let t = Trailer::parse(&pkt).unwrap();
        assert_eq!(t.truncated, Some((orig - 40) as u32));
        assert!(t.return_hops.is_empty());
        assert!(pkt.len() < orig);
    }

    #[test]
    fn recovery_list_roundtrips_and_normalizes_descriptor() {
        use crate::viper::AltBranch;
        let bytes = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                alt: Some(AltBranch { port: 3, splice: 0 }),
                ..Default::default()
            })
            .segment(local())
            .recovery(vec![SegmentRepr::minimal(2), local()])
            .payload(b"pay".to_vec())
            .build()
            .unwrap();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(view.route.len(), 2);
        assert_eq!(view.route[0].alt, Some(AltBranch { port: 3, splice: 0 }));
        assert_eq!(
            view.route[1].alt, None,
            "descriptor is builder-owned and parses back out"
        );
        assert_eq!(view.recovery.len(), 2);
        assert_eq!(view.recovery[1].port, PORT_LOCAL);
        assert_eq!(view.data(&bytes), b"pay");
    }

    #[test]
    fn branch_splice_one_past_recovery_list_rejected() {
        use crate::viper::AltBranch;
        let err = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                alt: Some(AltBranch { port: 3, splice: 2 }),
                ..Default::default()
            })
            .segment(local())
            .recovery(vec![SegmentRepr::minimal(2), local()])
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::BadSpliceIndex);
    }

    #[test]
    fn branch_without_recovery_list_rejected() {
        use crate::viper::AltBranch;
        let err = PacketBuilder::new()
            .segment(SegmentRepr {
                port: 2,
                alt: Some(AltBranch { port: 3, splice: 0 }),
                ..Default::default()
            })
            .segment(local())
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Malformed);
    }

    #[test]
    fn recovery_list_must_end_local_and_be_branch_free() {
        use crate::viper::AltBranch;
        let err = PacketBuilder::new()
            .segment(seg(2))
            .segment(local())
            .recovery(vec![SegmentRepr::minimal(2)])
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Malformed);
        let err = PacketBuilder::new()
            .segment(seg(2))
            .segment(local())
            .recovery(vec![
                SegmentRepr {
                    port: 2,
                    alt: Some(AltBranch { port: 4, splice: 0 }),
                    ..Default::default()
                },
                local(),
            ])
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Malformed);
    }

    #[test]
    fn recovery_list_at_max_count_roundtrips_and_over_rejected() {
        use crate::viper::AltBranch;
        let full: Vec<SegmentRepr> = (0..VIPER_MAX_SEGMENTS - 1)
            .map(|_| SegmentRepr::minimal(2))
            .chain([local()])
            .collect();
        let bytes = PacketBuilder::new()
            .without_mtu_check()
            .segment(SegmentRepr {
                port: 2,
                alt: Some(AltBranch {
                    port: 3,
                    splice: (VIPER_MAX_SEGMENTS - 1) as u8,
                }),
                ..Default::default()
            })
            .segment(local())
            .recovery(full.clone())
            .payload(b"x".to_vec())
            .build()
            .unwrap();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(view.recovery.len(), VIPER_MAX_SEGMENTS);

        let mut over = full;
        over.insert(0, SegmentRepr::minimal(2));
        let err = PacketBuilder::new()
            .without_mtu_check()
            .segment(seg(2))
            .segment(local())
            .recovery(over)
            .payload(b"x".to_vec())
            .build()
            .unwrap_err();
        assert_eq!(err, Error::TooManySegments);
    }

    #[test]
    fn every_transit_hop_can_carry_a_branch() {
        use crate::viper::AltBranch;
        // Max alternate count: all 47 transit hops of a full-size route
        // marked, each splicing one entry deeper.
        let mut b = PacketBuilder::new().without_mtu_check();
        for i in 0..VIPER_MAX_SEGMENTS - 1 {
            b = b.segment(SegmentRepr {
                port: 2,
                alt: Some(AltBranch {
                    port: 3,
                    splice: i.min(VIPER_MAX_SEGMENTS - 1) as u8,
                }),
                ..Default::default()
            });
        }
        let recovery: Vec<SegmentRepr> = (0..VIPER_MAX_SEGMENTS - 1)
            .map(|_| SegmentRepr::minimal(2))
            .chain([local()])
            .collect();
        let bytes = b
            .segment(local())
            .recovery(recovery)
            .payload(b"x".to_vec())
            .build()
            .unwrap();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(view.route.len(), VIPER_MAX_SEGMENTS);
        assert!(view.route[..VIPER_MAX_SEGMENTS - 1]
            .iter()
            .all(|s| s.alt.is_some()));
    }
}

#[cfg(test)]
mod proptests {
    use super::host_path_proptests::scan_agrees_with_view;
    use super::oracle::*;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn full_path_reversal(ports in proptest::collection::vec(1u8..=255, 1..10),
                              arrive in proptest::collection::vec(1u8..=255, 10),
                              data in proptest::collection::vec(any::<u8>(), 0..200)) {
            // Build a route of N transit hops + local, push it through N
            // emulated routers, check the receiver reconstructs the exact
            // reversed arrival-port sequence.
            let mut b = PacketBuilder::new().without_mtu_check();
            for &p in &ports {
                b = b.segment(SegmentRepr::minimal(p));
            }
            let mut pkt = b
                .segment(SegmentRepr::minimal(PORT_LOCAL))
                .payload(data.clone())
                .build()
                .unwrap();

            for i in 0..ports.len() {
                let front = strip_front_segment(&mut pkt).unwrap();
                prop_assert_eq!(front.port, ports[i]);
                append_return_hop(&mut pkt, SegmentRepr { port: arrive[i], ..front }).unwrap();
            }

            let view = PacketView::parse(&pkt).unwrap();
            prop_assert_eq!(view.data(&pkt), &data[..]);
            let reply = reply_route(&view);
            let got: Vec<u8> = reply.iter().map(|s| s.port).collect();
            let mut want: Vec<u8> = arrive[..ports.len()].to_vec();
            want.reverse();
            want.push(PORT_LOCAL);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            scan_agrees_with_view(&bytes);
        }

        /// The zero-copy forwarding path (PacketBuf offset moves +
        /// in-place/COW appends) must be byte-for-byte identical to the
        /// original Vec path across strip / return-hop append / truncate
        /// at every hop, including the receiver's reply route.
        #[test]
        fn buf_path_matches_vec_path(ports in proptest::collection::vec(1u8..=255, 1..10),
                                     arrive in proptest::collection::vec(1u8..=255, 10),
                                     trunc_at in 0usize..20, // >=10 means "never truncate"
                                     data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut b = PacketBuilder::new().without_mtu_check();
            for &p in &ports {
                b = b.segment(SegmentRepr::minimal(p));
            }
            let built = b
                .segment(SegmentRepr::minimal(PORT_LOCAL))
                .payload(data.clone())
                .build()
                .unwrap();
            let mut vec_pkt = built.clone();
            let mut buf_pkt = PacketBuf::from_vec(built);

            for (i, &arrival_port) in arrive.iter().take(ports.len()).enumerate() {
                let front = strip_front_segment(&mut vec_pkt).unwrap();
                let view = strip_front_segment_buf(&mut buf_pkt).unwrap();
                prop_assert_eq!(view.port(), front.port);
                prop_assert_eq!(view.to_repr(), front.clone());
                drop(view); // release the store before the append, as the router does
                let rh = SegmentRepr { port: arrival_port, ..front };
                append_return_hop(&mut vec_pkt, rh.clone()).unwrap();
                append_return_hop_buf(&mut buf_pkt, rh).unwrap();
                if trunc_at == i && vec_pkt.len() > 8 {
                    let keep = vec_pkt.len() - 4;
                    truncate_packet(&mut vec_pkt, keep);
                    truncate_packet_buf(&mut buf_pkt, keep);
                }
                prop_assert_eq!(&vec_pkt[..], buf_pkt.as_slice());
            }

            // A mid-flight truncation may have cut the trailer walk; both
            // paths must then agree on the failure, not just on success.
            match (PacketView::parse(&vec_pkt), PacketView::parse(&buf_pkt)) {
                (Ok(vv), Ok(bv)) => prop_assert_eq!(reply_route(&vv), reply_route(&bv)),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "paths diverged: vec={:?} buf={:?}",
                                       a.map(|_| ()), b.map(|_| ())),
            }
        }

        /// Hostile input must never panic the PacketBuf path either.
        #[test]
        fn buf_path_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut pkt = PacketBuf::from_vec(bytes);
            while let Ok(seg) = strip_front_segment_buf(&mut pkt) {
                if seg.encoded_len() == 0 || pkt.is_empty() {
                    break;
                }
            }
        }
    }
}

/// The host's byte-level path held to the struct-level one: a header
/// encoded once against [`PacketBuilder::build`], and [`Scan`] against
/// [`PacketView::parse`] + [`reply_route`].
#[cfg(test)]
mod host_path_proptests {
    use super::*;
    use crate::ethernet;
    use crate::viper::Flags;
    use proptest::prelude::*;

    /// Assert [`Scan`] and [`PacketView`] tell the same story about
    /// `bytes`: the same refusal, or the same route length, selector,
    /// data window, truncation and reply header.
    pub(super) fn scan_agrees_with_view(bytes: &[u8]) {
        let view = PacketView::parse(bytes);
        let data = view.as_ref().map(|v| v.data_start..v.data_end);
        assert_eq!(data_range(bytes), data.map_err(|e| *e));
        match (Scan::parse(bytes), view) {
            (Err(scan), Err(view)) => assert_eq!(scan, view),
            (Ok(scan), Ok(view)) => {
                assert_eq!(scan.route_len, view.route.len());
                let local = view.route.last().expect("a parsed route ends local");
                assert_eq!(&bytes[scan.selector.clone()], &local.port_info[..]);
                assert_eq!(scan.data, view.data_start..view.data_end);
                assert_eq!(scan.truncated, view.trailer.truncated);
                let rebuilt = PacketBuilder::new()
                    .route(reply_route(&view))
                    .build_header();
                assert_eq!(scan.reply, rebuilt);
            }
            (scan, view) => panic!("scan {scan:?} but view {view:?}"),
        }
    }

    /// (port, token kind, portInfo kind, branch): one header segment.
    type SegSpec = (u8, u8, u8, (u8, u8, u8));

    fn seg_spec() -> impl Strategy<Value = SegSpec> {
        (any::<u8>(), 0u8..6, 0u8..6, (0u8..4, any::<u8>(), 0u8..52))
    }

    /// Tokens of 0/16/32 bytes; empty, compressed-Ethernet or Ethernet
    /// `portInfo` (empty more often than not, so that long routes still
    /// fit a packet); a branch on one segment in four.
    fn segment((port, token, info, (branch, alt_port, splice)): SegSpec) -> SegmentRepr {
        let port_info = match info {
            0..=3 => Vec::new(),
            4 => vec![port ^ 0x5A; ethernet::COMPRESSED_LEN],
            _ => vec![port ^ 0xA5; ethernet::HEADER_LEN],
        };
        let alt = (branch == 0).then_some(AltBranch {
            port: alt_port,
            splice,
        });
        SegmentRepr {
            port,
            flags: Flags {
                vnt: port_info.is_empty() && alt.is_none(),
                rpf: port & 1 == 1,
                ..Default::default()
            },
            priority: crate::viper::Priority::new(port >> 4),
            port_token: vec![port; token.saturating_sub(3) as usize * 16],
            port_info,
            alt,
        }
    }

    /// A list of segments ending with a local-delivery one (unless
    /// `unterminated`), its branches kept as drawn, dropped, or pointed
    /// into a recovery list of `splice_into` entries.
    fn segments(
        specs: Vec<SegSpec>,
        unterminated: bool,
        splice_into: Option<usize>,
    ) -> Vec<SegmentRepr> {
        let mut segs: Vec<SegmentRepr> = specs.into_iter().map(segment).collect();
        if let Some(last) = segs.last_mut().filter(|_| !unterminated) {
            last.port = PORT_LOCAL;
            last.alt = None;
        }
        for alt in segs.iter_mut().filter_map(|s| s.alt.as_mut()) {
            if let Some(n) = splice_into.filter(|&n| n > 0) {
                alt.splice %= n as u8;
            }
        }
        if splice_into == Some(0) {
            segs.iter_mut().for_each(|s| s.alt = None);
        }
        segs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// (a) Encode the header once, stamp it on payloads of many
        /// sizes: each packet is byte for byte what the builder makes of
        /// the same route and payload, and what the builder refuses —
        /// over-long or unterminated routes, bad alternates, packets
        /// over the transmission unit — is refused with the same error.
        #[test]
        fn header_encoded_once_matches_the_builder(
            route in proptest::collection::vec(seg_spec(), 1..50),
            recovery in proptest::collection::vec(seg_spec(), 1..50),
            (shape, unterminated) in (0u8..8, 0u8..16),
            payloads in proptest::collection::vec(0usize..1600, 1..4),
        ) {
            let unterminated = unterminated == 0;
            let (route, recovery) = match shape {
                // Unprotected routes.
                0..=2 => (segments(route, unterminated, Some(0)), Vec::new()),
                // Protected ones, every splice inside the list.
                3 | 4 => {
                    let n = recovery.len();
                    (segments(route, unterminated, Some(n)), segments(recovery, false, Some(0)))
                }
                // Branches as drawn: with no list to point into, past
                // its end, from inside it, or into one left unterminated.
                5 => (segments(route, unterminated, None), Vec::new()),
                6 => (segments(route, unterminated, None), segments(recovery, false, Some(0))),
                _ => (segments(route, false, Some(0)), segments(recovery, unterminated, None)),
            };
            let header = PacketBuilder::new()
                .route(route.clone())
                .recovery(recovery.clone())
                .build_header();
            for len in payloads {
                let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let built = PacketBuilder::new()
                    .route(route.clone())
                    .recovery(recovery.clone())
                    .payload(payload.clone())
                    .build();
                let stamped = header
                    .clone()
                    .and_then(|h| h.packet(len, |data| data.copy_from_slice(&payload)))
                    .map(|p| p.to_vec());
                prop_assert_eq!(stamped, built);
            }
        }

        /// (b) Walk a packet through simulated routers — strip, append
        /// the return hop, sometimes truncate, sometimes a hostile hop
        /// that carries a branch or a trailer grown past 48 hops — and at
        /// every stage the receiver's borrowed scan equals the owned
        /// parse, reply header included. While the trailer grows only by
        /// what the route shed, the store the header stamped never moves.
        #[test]
        fn scan_matches_view_after_simulated_hops(
            hops in proptest::collection::vec((seg_spec(), 1u8..=255, any::<bool>()), 0..25),
            (selector, protect) in (0u8..3, any::<bool>()),
            (truncate_at, hostile_at, extra) in (0usize..50, 0usize..50, 0usize..80),
            data in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut route: Vec<SegmentRepr> = hops
                .iter()
                .map(|&(spec, _, _)| SegmentRepr { alt: None, ..segment(spec) })
                .collect();
            route.push(SegmentRepr {
                port_info: vec![0xE0; selector as usize],
                ..SegmentRepr::minimal(PORT_LOCAL)
            });
            let mut recovery = Vec::new();
            if protect && route.len() > 1 {
                recovery = route[1..].to_vec();
                route[0].alt = Some(AltBranch { port: 9, splice: 0 });
                route[0].flags.vnt = false;
            }
            // Stamped from the encoded header when it fits the
            // transmission unit, built unchecked when it does not.
            let builder = PacketBuilder::new().route(route).recovery(recovery);
            let stamped = builder
                .clone()
                .build_header()
                .unwrap()
                .packet(data.len(), |d| d.copy_from_slice(&data));
            let mut pkt = stamped.unwrap_or_else(|_| {
                let unchecked = builder.without_mtu_check().payload(data.clone());
                unchecked.build_buf().unwrap()
            });
            scan_agrees_with_view(&pkt);

            let base = pkt.as_slice().as_ptr() as usize - pkt.head_offset();
            let mut in_budget = true;
            for (i, &(_, arrival, ethernet_arrival)) in hops.iter().enumerate() {
                let front = strip_front_segment_buf(&mut pkt).unwrap().to_repr();
                let return_hop = SegmentRepr {
                    port: arrival,
                    flags: Flags { rpf: true, ..Default::default() },
                    port_info: if ethernet_arrival {
                        vec![arrival; ethernet::HEADER_LEN]
                    } else {
                        Vec::new()
                    },
                    alt: (hostile_at == i).then_some(AltBranch { port: 1, splice: 0 }),
                    ..front
                };
                append_return_hop_buf(&mut pkt, return_hop).unwrap();
                if truncate_at == i {
                    let keep = pkt.len() - pkt.len().min(7);
                    truncate_packet_buf(&mut pkt, keep);
                    in_budget = false;
                }
                in_budget &= hostile_at != i;
                if in_budget {
                    prop_assert_eq!(pkt.as_slice().as_ptr() as usize - pkt.head_offset(), base);
                }
                scan_agrees_with_view(&pkt);
            }
            // A trailer longer than any route: the reply must be refused
            // alike once it passes 47 hops.
            for _ in 0..extra.saturating_sub(40) {
                append_return_hop_buf(&mut pkt, SegmentRepr::minimal(3)).unwrap();
            }
            scan_agrees_with_view(&pkt);

            // And a damaged copy is still classified alike.
            let mut damaged = pkt.to_vec();
            if !damaged.is_empty() {
                let at = (extra * 31 + truncate_at) % damaged.len();
                damaged[at] ^= 1 << (hostile_at % 8);
                scan_agrees_with_view(&damaged);
                damaged.truncate(at);
                scan_agrees_with_view(&damaged);
            }
        }
    }
}
