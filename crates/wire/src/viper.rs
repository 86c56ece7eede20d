//! The VIPER header segment — Figure 1 of the paper.
//!
//! ```text
//!  0                   1
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |PortInfoLength |PortTokenLength|
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |     Port      |Flags|Priority |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! >          Port Token           <
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! >          Port Info            <
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! The fixed-length portion comes first "to minimize the difficulty of
//! handling the packet header segment in cut-through switching hardware"
//! (§5): the switch learns both variable-field lengths and the output port
//! before the variable part has finished arriving. The smallest legal
//! segment is 32 bits (both variable fields empty).
//!
//! A length byte of 255 is an escape: the actual length is carried in the
//! 32 bits starting at the corresponding variable field, followed by that
//! many payload bytes (§5: "A value of 255 is reserved to indicate that
//! the actual length is larger than 254 octets").
//!
//! ## Alternate branches (Slick-Packets failover)
//!
//! A segment may additionally carry a compact fallback branch — an
//! alternate output port plus a splice index into the packet's recovery
//! segment list — so the router *adjacent* to a failed next hop can
//! divert the packet in one hop time instead of letting it die. The
//! branch is a two-byte suffix `[alt_port, splice]` that trails the
//! `portInfo` field and is **not** counted by either length byte, so the
//! fixed prologue and both variable fields keep their exact legacy
//! layout. Its presence is signalled by setting both the VNT and TRB
//! flag bits together — a combination that is contradictory as literal
//! flags ("another segment follows" + "portInfo is a tree spec") and was
//! never emitted, which makes a header with zero alternates byte-
//! identical to the pre-failover format. Parsing a marked segment
//! reports `vnt = tree = false` plus the decoded [`AltBranch`].

use core::ops::Range;

use crate::{Error, Result};

/// Size of the fixed-length prologue of every segment.
pub const FIXED_LEN: usize = 4;

/// Length-byte value that escapes to a 32-bit extended length.
pub const LEN_ESCAPE: u8 = 255;

/// The reserved "local delivery" port value (§5: "Reserving 0 as a special
/// port value meaning 'local', the effective number of ports per switch is
/// limited to 255").
pub const PORT_LOCAL: u8 = 0;

/// Length of the alternate-branch suffix (`[alt_port, splice]`) that
/// trails the `portInfo` field when the flags nibble carries the ALT
/// marker (see the [module docs](self)).
pub const ALT_SUFFIX_LEN: usize = 2;

/// Byte offsets of the fixed prologue fields.
mod field {
    pub const PORT_INFO_LEN: usize = 0;
    pub const PORT_TOKEN_LEN: usize = 1;
    pub const PORT: usize = 2;
    pub const FLAGS_PRIORITY: usize = 3;
}

/// Segment flags (§5). The paper names three; we assign them to the high
/// nibble of byte 3, leaving one reserved bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// VNT — *VIPER Next Type*: the `portInfo` field is void (or padding)
    /// and another VIPER header segment immediately follows this one.
    pub vnt: bool,
    /// DIB — *Drop If Blocked*: drop the packet rather than queueing it
    /// when the output port is busy.
    pub dib: bool,
    /// RPF — *Reverse Path Forwarding*: the packet is being returned using
    /// the route and tokens supplied in a previously received packet.
    pub rpf: bool,
    /// TRB — *Tree Branch*: this segment's `portInfo` carries a
    /// tree-structured multicast specification ("multiple header segments
    /// specified for a routing point, with each header segment causing a
    /// copy of the packet to be routed according to the port it
    /// specifies", §2 — the Blazenet-style mechanism). This
    /// reproduction's concretization assigns it the last flag bit.
    pub tree: bool,
}

impl Flags {
    const VNT_BIT: u8 = 0b1000;
    const DIB_BIT: u8 = 0b0100;
    const RPF_BIT: u8 = 0b0010;
    const TREE_BIT: u8 = 0b0001;
    /// The ALT-marker pattern: VNT and TRB set together signals an
    /// alternate-branch suffix, not the (contradictory) literal flags.
    pub(crate) const ALT_MARKER: u8 = Self::VNT_BIT | Self::TREE_BIT;

    /// Decode from the high nibble of the flags/priority byte.
    pub fn from_nibble(n: u8) -> Flags {
        Flags {
            vnt: n & Self::VNT_BIT != 0,
            dib: n & Self::DIB_BIT != 0,
            rpf: n & Self::RPF_BIT != 0,
            tree: n & Self::TREE_BIT != 0,
        }
    }

    /// Encode into the high nibble of the flags/priority byte.
    pub fn to_nibble(self) -> u8 {
        (if self.vnt { Self::VNT_BIT } else { 0 })
            | (if self.dib { Self::DIB_BIT } else { 0 })
            | (if self.rpf { Self::RPF_BIT } else { 0 })
            | (if self.tree { Self::TREE_BIT } else { 0 })
    }
}

/// A 4-bit VIPER priority.
///
/// §5: "Normal priority is 0 with 7 highest priority. Priorities 6 and 7
/// preempt the transmission of lower priority packets in mid-transmission
/// if necessary. Values with the high-order bit set represent lower
/// priorities, 0xF being the lowest priority."
///
/// The resulting total order, highest first, is
/// `7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Priority(u8);

impl Priority {
    /// Normal priority (0).
    pub const NORMAL: Priority = Priority(0);
    /// The highest priority (7). Preemptive.
    pub const HIGHEST: Priority = Priority(7);
    /// The lowest priority (0xF).
    pub const LOWEST: Priority = Priority(0xF);

    /// Construct from a raw 4-bit value. Values above 15 are masked.
    pub fn new(raw: u8) -> Priority {
        Priority(raw & 0x0F)
    }

    /// The raw 4-bit wire value.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// A signed rank such that greater rank = more urgent:
    /// 0..=7 map to 0..=7; 8..=15 map to -1..=-8.
    pub fn rank(self) -> i8 {
        if self.0 < 8 {
            self.0 as i8
        } else {
            7 - self.0 as i8
        }
    }

    /// Whether this priority preempts in-flight lower-priority
    /// transmissions (values 6 and 7).
    pub fn is_preemptive(self) -> bool {
        self.0 == 6 || self.0 == 7
    }
}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// A Slick-Packets-style fallback branch attached to a primary header
/// segment.
///
/// When the router owning the segment finds its primary next hop
/// unreachable (link down, or the peer router itself down), it diverts
/// the packet out `port` instead, re-headed with the recovery-list
/// suffix starting at index `splice` (up to and including the first
/// local-delivery segment at or after it).
///
/// On the *terminating* (port-0) segment of a route the branch is
/// overloaded as the recovery-list descriptor: `port` holds the number
/// of recovery segments that follow the route, and `splice` is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltBranch {
    /// Alternate output port to divert on (recovery-segment count on the
    /// terminating segment).
    pub port: u8,
    /// Splice index into the packet's recovery segment list.
    pub splice: u8,
}

/// One header segment as decoded from the front of a buffer: the fixed
/// prologue, where both variable fields lie (255-escapes resolved), and
/// the alternate-branch suffix. Offsets are relative to the segment
/// start. [`decode`] is the one place a segment's bytes are read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The output-port identifier.
    pub port: u8,
    /// The segment flags. On a marked segment the recycled VNT/TRB bits
    /// read `false` — the marker surfaces as [`Decoded::alt`], never as
    /// literal flags, so flag-driven paths (tree decode, next-type
    /// chaining) cannot misfire on it.
    pub flags: Flags,
    /// The segment priority.
    pub priority: Priority,
    /// The alternate branch, when the ALT marker is present.
    pub alt: Option<AltBranch>,
    /// Where the `portToken` bytes lie (past any extended-length word).
    pub token: Range<usize>,
    /// Where the `portInfo` bytes lie (past any extended-length word).
    pub info: Range<usize>,
    /// Total encoded length, the alternate-branch suffix included.
    pub len: usize,
}

impl Decoded {
    /// The `portToken` bytes of `seg`, the buffer this was decoded from
    /// (empty when absent: a zero `portTokenLength` means "no token", §5).
    pub fn port_token<'a>(&self, seg: &'a [u8]) -> &'a [u8] {
        seg.get(self.token.clone()).unwrap_or_default()
    }

    /// The network-specific `portInfo` bytes of `seg`.
    pub fn port_info<'a>(&self, seg: &'a [u8]) -> &'a [u8] {
        seg.get(self.info.clone()).unwrap_or_default()
    }

    /// Copy the segment out of `seg`, the buffer this was decoded from.
    pub fn to_repr(&self, seg: &[u8]) -> SegmentRepr {
        SegmentRepr {
            port: self.port,
            flags: self.flags,
            priority: self.priority,
            port_token: self.port_token(seg).to_vec(),
            port_info: self.port_info(seg).to_vec(),
            alt: self.alt,
        }
    }
}

/// Decode the segment at the front of `buf` (which may run on past it)
/// in one pass. Fails with [`Error::Truncated`] when the segment does
/// not fit, and [`Error::BadExtendedLength`] when an escaped length's
/// 32-bit word is cut off or holds a length the escape may not carry.
// Inlined: it runs once per hop and per trailer entry, and a call would
// return the decode through memory.
#[inline]
pub fn decode(buf: &[u8]) -> Result<Decoded> {
    let &[info_len, token_len, port, flags_priority] =
        buf.first_chunk::<FIXED_LEN>().ok_or(Error::Truncated)?;
    // Where a variable field lies when it begins at `at`: a 255 escape
    // reads the real length (at least 255, §5) from the 32-bit word at
    // `at`, and the field follows the word.
    let field = |len_byte: u8, at: usize| -> Result<Range<usize>> {
        if len_byte != LEN_ESCAPE {
            return Ok(at..at.saturating_add(len_byte as usize));
        }
        let word = buf.get(at..).and_then(<[u8]>::first_chunk::<4>);
        let n = u32::from_be_bytes(*word.ok_or(Error::BadExtendedLength)?) as usize;
        if n < 255 {
            return Err(Error::BadExtendedLength);
        }
        let start = at.saturating_add(4);
        Ok(start..start.saturating_add(n))
    };
    let token = field(token_len, FIXED_LEN)?;
    let info = field(info_len, token.end)?;
    let nibble = flags_priority >> 4;
    let marked = nibble & Flags::ALT_MARKER == Flags::ALT_MARKER;
    let len = info
        .end
        .saturating_add(if marked { ALT_SUFFIX_LEN } else { 0 });
    let alt = match buf.get(info.end..len).ok_or(Error::Truncated)? {
        &[alt_port, splice] => Some(AltBranch {
            port: alt_port,
            splice,
        }),
        _ => None,
    };
    let mut flags = Flags::from_nibble(nibble);
    if marked {
        flags.vnt = false;
        flags.tree = false;
    }
    Ok(Decoded {
        port,
        flags,
        priority: Priority::new(flags_priority),
        alt,
        token,
        info,
        len,
    })
}

/// An owned, high-level representation of a VIPER header segment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentRepr {
    /// Output port at the router this segment addresses. 0 = local.
    pub port: u8,
    /// Segment flags.
    pub flags: Flags,
    /// Switching/forwarding priority.
    pub priority: Priority,
    /// The (opaque, possibly encrypted) port token. Empty = absent.
    pub port_token: Vec<u8>,
    /// Network-specific port information (e.g. an Ethernet header for the
    /// next hop). Empty for point-to-point links.
    pub port_info: Vec<u8>,
    /// Optional Slick-Packets fallback branch. `None` encodes byte-
    /// identically to the pre-failover format. When `Some`, `flags.vnt`
    /// and `flags.tree` must be `false` — the wire nibble is taken over
    /// by the ALT marker, and [`SegmentRepr::emit`] rejects the
    /// non-canonical combinations.
    pub alt: Option<AltBranch>,
}

impl SegmentRepr {
    /// A minimal segment: just a port, no token, no info (the 32-bit
    /// minimum of §5).
    pub fn minimal(port: u8) -> SegmentRepr {
        SegmentRepr {
            port,
            ..Default::default()
        }
    }

    /// Parse a segment directly from a byte slice, returning the repr and
    /// the number of bytes consumed.
    pub fn parse_prefix(buffer: &[u8]) -> Result<(SegmentRepr, usize)> {
        let seg = decode(buffer)?;
        Ok((seg.to_repr(buffer), seg.len))
    }

    /// The same segment with its variable fields borrowed.
    pub fn by_ref(&self) -> SegmentRef<'_> {
        SegmentRef {
            port: self.port,
            flags: self.flags,
            priority: self.priority,
            port_token: &self.port_token,
            port_info: &self.port_info,
            alt: self.alt,
        }
    }

    /// The number of bytes `emit` will write.
    pub fn buffer_len(&self) -> usize {
        self.by_ref().buffer_len()
    }

    /// Emit into the front of `buffer`, which must be at least
    /// [`SegmentRepr::buffer_len`] bytes. Returns the bytes written.
    /// Fails as [`SegmentRef::emit`] does.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        self.by_ref().emit(buffer)
    }

    /// Emit into a fresh vector.
    ///
    /// # Panics
    /// On the non-canonical flag/branch combinations [`SegmentRepr::emit`]
    /// rejects (no construction site in this workspace produces them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.buffer_len()];
        self.emit(&mut v).expect("canonical repr sized exactly");
        v
    }
}

/// A header segment whose variable fields are borrowed: what
/// [`SegmentRepr`] emits through, and what a router emits a return hop
/// from without copying its token into an owned segment first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentRef<'a> {
    /// Output port at the router this segment addresses. 0 = local.
    pub port: u8,
    /// Segment flags.
    pub flags: Flags,
    /// Switching/forwarding priority.
    pub priority: Priority,
    /// The (opaque, possibly encrypted) port token. Empty = absent.
    pub port_token: &'a [u8],
    /// Network-specific port information. Empty for point-to-point
    /// links.
    pub port_info: &'a [u8],
    /// Optional Slick-Packets fallback branch.
    pub alt: Option<AltBranch>,
}

impl SegmentRef<'_> {
    /// Encoded length of one variable field, including a possible
    /// extended-length word.
    fn var_field_len(payload: usize) -> usize {
        if payload > 254 {
            4 + payload
        } else {
            payload
        }
    }

    /// The number of bytes `emit` will write.
    pub fn buffer_len(&self) -> usize {
        FIXED_LEN
            + Self::var_field_len(self.port_token.len())
            + Self::var_field_len(self.port_info.len())
            + if self.alt.is_some() {
                ALT_SUFFIX_LEN
            } else {
                0
            }
    }

    /// Emit into the front of `buffer`, which must be at least
    /// [`SegmentRef::buffer_len`] bytes. Returns the bytes written.
    ///
    /// Fails with [`Error::Malformed`] on the non-canonical flag/branch
    /// combinations: VNT+TRB set together without an alternate branch
    /// (that nibble *is* the ALT marker — emitting it bare would make
    /// the parser read payload bytes as a branch), or an alternate
    /// branch alongside a set VNT or TRB bit (the marker overrides them
    /// on the wire, so they would not round-trip).
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        let nibble = self.flags.to_nibble();
        match self.alt {
            None if nibble & Flags::ALT_MARKER == Flags::ALT_MARKER => {
                return Err(Error::Malformed);
            }
            Some(_) if self.flags.vnt || self.flags.tree => {
                return Err(Error::Malformed);
            }
            _ => {}
        }
        let need = self.buffer_len();
        if buffer.len() < need {
            return Err(Error::Truncated);
        }
        buffer[field::PORT_INFO_LEN] = if self.port_info.len() > 254 {
            LEN_ESCAPE
        } else {
            self.port_info.len() as u8
        };
        buffer[field::PORT_TOKEN_LEN] = if self.port_token.len() > 254 {
            LEN_ESCAPE
        } else {
            self.port_token.len() as u8
        };
        buffer[field::PORT] = self.port;
        let wire_nibble = if self.alt.is_some() {
            nibble | Flags::ALT_MARKER
        } else {
            nibble
        };
        buffer[field::FLAGS_PRIORITY] = (wire_nibble << 4) | self.priority.raw();
        let mut at = FIXED_LEN;
        for bytes in [self.port_token, self.port_info] {
            if bytes.len() > 254 {
                buffer[at..at + 4].copy_from_slice(&(bytes.len() as u32).to_be_bytes());
                at += 4;
            }
            buffer[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        }
        if let Some(ab) = self.alt {
            buffer[at] = ab.port;
            buffer[at + 1] = ab.splice;
            at += ALT_SUFFIX_LEN;
        }
        debug_assert_eq!(at, need);
        Ok(need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &SegmentRepr) -> SegmentRepr {
        let bytes = r.to_bytes();
        let (back, used) = SegmentRepr::parse_prefix(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        back
    }

    #[test]
    fn minimal_segment_is_32_bits() {
        let r = SegmentRepr::minimal(9);
        assert_eq!(r.buffer_len(), 4, "smallest segment size is 32 bits (§5)");
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn ethernet_info_segment_is_18_bytes() {
        // §6.2: "the average header size is 18 bytes per hop (which is a
        // VIPER header plus Ethernet header)".
        let r = SegmentRepr {
            port: 3,
            port_info: vec![0u8; 14],
            ..Default::default()
        };
        assert_eq!(r.buffer_len(), 18);
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn token_and_info_roundtrip() {
        let r = SegmentRepr {
            port: 200,
            flags: Flags {
                vnt: true,
                dib: false,
                rpf: true,
                tree: false,
            },
            priority: Priority::new(6),
            port_token: (0..32).collect(),
            port_info: (0..14).rev().collect(),
            alt: None,
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn long_field_escape_roundtrip() {
        let r = SegmentRepr {
            port: 1,
            port_token: vec![0xAB; 300],
            port_info: vec![0xCD; 1000],
            ..Default::default()
        };
        assert_eq!(r.buffer_len(), 4 + 4 + 300 + 4 + 1000);
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn boundary_254_does_not_escape_255_does() {
        let r254 = SegmentRepr {
            port_token: vec![1; 254],
            ..Default::default()
        };
        assert_eq!(r254.buffer_len(), 4 + 254);
        assert_eq!(roundtrip(&r254), r254);

        let r255 = SegmentRepr {
            port_token: vec![1; 255],
            ..Default::default()
        };
        assert_eq!(r255.buffer_len(), 4 + 4 + 255);
        assert_eq!(roundtrip(&r255), r255);
    }

    #[test]
    fn truncated_buffers_rejected() {
        let r = SegmentRepr {
            port_token: vec![7; 10],
            port_info: vec![8; 20],
            ..Default::default()
        };
        let bytes = r.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn bogus_extended_length_rejected() {
        // Escape byte with a small extended length is malformed.
        let mut bytes = vec![0u8, LEN_ESCAPE, 5, 0];
        bytes.extend_from_slice(&10u32.to_be_bytes());
        bytes.extend_from_slice(&[0; 10]);
        assert_eq!(decode(&bytes).unwrap_err(), Error::BadExtendedLength);
    }

    #[test]
    fn priority_order_matches_paper() {
        // 7 highest … 0 normal … 15 lowest.
        let order: Vec<u8> = vec![7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15];
        for w in order.windows(2) {
            assert!(
                Priority::new(w[0]) > Priority::new(w[1]),
                "{} should outrank {}",
                w[0],
                w[1]
            );
        }
        assert!(Priority::new(6).is_preemptive());
        assert!(Priority::new(7).is_preemptive());
        assert!(!Priority::new(5).is_preemptive());
        assert!(!Priority::new(8).is_preemptive());
        assert_eq!(Priority::LOWEST, Priority::new(0xF));
    }

    #[test]
    fn flags_nibble_roundtrip() {
        for bits in 0..16u8 {
            let f = Flags {
                vnt: bits & 1 != 0,
                dib: bits & 2 != 0,
                rpf: bits & 4 != 0,
                tree: bits & 8 != 0,
            };
            assert_eq!(Flags::from_nibble(f.to_nibble()), f);
        }
    }

    #[test]
    fn alt_branch_roundtrips_as_two_byte_suffix() {
        let plain = SegmentRepr {
            port: 7,
            port_token: vec![1, 2, 3],
            port_info: vec![9; 14],
            ..Default::default()
        };
        let marked = SegmentRepr {
            alt: Some(AltBranch { port: 3, splice: 5 }),
            ..plain.clone()
        };
        assert_eq!(marked.buffer_len(), plain.buffer_len() + ALT_SUFFIX_LEN);
        let bytes = marked.to_bytes();
        // The suffix is exactly [alt_port, splice] at the tail, and the
        // prefix before it matches the unmarked encoding everywhere but
        // the flags nibble.
        assert_eq!(&bytes[bytes.len() - 2..], &[3, 5]);
        assert_eq!(roundtrip(&marked), marked);
        // The decoded length must count the suffix too.
        let mut framed = bytes.clone();
        framed.extend_from_slice(b"data");
        let seg = decode(&framed).unwrap();
        assert_eq!(&framed[seg.len..], b"data");
        assert_eq!(seg.alt, Some(AltBranch { port: 3, splice: 5 }));
    }

    #[test]
    fn zero_alternates_is_byte_identical_to_legacy_format() {
        // The whole golden-trace compatibility argument: a repr without
        // an alternate must encode exactly as it did before the ALT
        // suffix existed (fixed prologue + token + info, nothing more).
        let r = SegmentRepr {
            port: 5,
            flags: Flags {
                dib: true,
                ..Default::default()
            },
            priority: Priority::new(6),
            port_token: vec![0xAA; 8],
            port_info: vec![0x55; 14],
            alt: None,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), FIXED_LEN + 8 + 14);
        assert_eq!(bytes[field::PORT_INFO_LEN], 14);
        assert_eq!(bytes[field::PORT_TOKEN_LEN], 8);
        assert_eq!(bytes[field::FLAGS_PRIORITY], (0b0100 << 4) | 6);
    }

    #[test]
    fn marked_segment_reports_clean_flags() {
        let r = SegmentRepr {
            port: 2,
            flags: Flags {
                dib: true,
                rpf: true,
                ..Default::default()
            },
            alt: Some(AltBranch { port: 9, splice: 0 }),
            ..Default::default()
        };
        let bytes = r.to_bytes();
        let seg = decode(&bytes).unwrap();
        // The recycled VNT/TRB bits never surface as literal flags.
        let f = seg.flags;
        assert!(!f.vnt && !f.tree && f.dib && f.rpf);
        assert!(seg.alt.is_some());
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn marked_segment_truncated_suffix_rejected() {
        let r = SegmentRepr {
            port: 1,
            port_info: vec![4; 6],
            alt: Some(AltBranch { port: 2, splice: 1 }),
            ..Default::default()
        };
        let bytes = r.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn non_canonical_marker_combinations_rejected() {
        // VNT+TRB without a branch IS the marker — emitting it bare
        // would alias payload bytes into a branch on reparse.
        let bare = SegmentRepr {
            flags: Flags {
                vnt: true,
                tree: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut buf = [0u8; 16];
        assert_eq!(bare.emit(&mut buf).unwrap_err(), Error::Malformed);
        // A branch alongside a set VNT or TRB bit would not round-trip.
        for (vnt, tree) in [(true, false), (false, true), (true, true)] {
            let r = SegmentRepr {
                flags: Flags {
                    vnt,
                    tree,
                    ..Default::default()
                },
                alt: Some(AltBranch { port: 1, splice: 0 }),
                ..Default::default()
            };
            assert_eq!(r.emit(&mut buf).unwrap_err(), Error::Malformed);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_repr() -> impl Strategy<Value = SegmentRepr> {
        (
            any::<u8>(),
            0u8..16,
            0u8..16,
            proptest::collection::vec(any::<u8>(), 0..400),
            proptest::collection::vec(any::<u8>(), 0..400),
            (any::<bool>(), any::<u8>(), any::<u8>()),
        )
            .prop_map(|(port, nibble, prio, tok, info, alt_raw)| {
                let alt = alt_raw.0.then_some(AltBranch {
                    port: alt_raw.1,
                    splice: alt_raw.2,
                });
                let mut flags = Flags::from_nibble(nibble);
                // Keep the repr canonical: with a branch the recycled
                // VNT/TRB bits must be clear; without one they must not
                // both be set (that nibble is the ALT marker).
                match alt {
                    Some(_) => {
                        flags.vnt = false;
                        flags.tree = false;
                    }
                    None if flags.vnt && flags.tree => flags.tree = false,
                    None => {}
                }
                SegmentRepr {
                    port,
                    flags,
                    priority: Priority::new(prio),
                    port_token: tok,
                    port_info: info,
                    alt,
                }
            })
    }

    proptest! {
        #[test]
        fn segment_roundtrips(r in arb_repr()) {
            let bytes = r.to_bytes();
            prop_assert_eq!(bytes.len(), r.buffer_len());
            let (back, used) = SegmentRepr::parse_prefix(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, r);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Hostile input: parsing must fail cleanly or succeed, never panic.
            let _ = SegmentRepr::parse_prefix(&bytes);
        }

        #[test]
        fn marked_parse_never_panics(mut bytes in proptest::collection::vec(any::<u8>(), 4..64)) {
            // Hostile input with the ALT marker forced on, steering every
            // case through the suffix-aware parse path.
            bytes[3] |= 0b1001 << 4;
            let _ = SegmentRepr::parse_prefix(&bytes);
        }

        #[test]
        fn priority_rank_total_order(a in 0u8..16, b in 0u8..16) {
            let (pa, pb) = (Priority::new(a), Priority::new(b));
            // Antisymmetry + totality via rank.
            if pa > pb { prop_assert!(pb < pa); }
            if pa == pb { prop_assert_eq!(a, b); }
        }
    }
}
