//! # sirpent-wire — wire formats for the Sirpent internetwork architecture
//!
//! This crate provides byte-accurate, zero-copy representations of every
//! packet format used by the Sirpent/VIPER reproduction:
//!
//! * [`viper`] — the VIPER header segment of Figure 1 of the paper
//!   (Cheriton, *Sirpent: A High-Performance Internetworking Approach*,
//!   SIGCOMM 1989), including the 255-escape for long variable fields,
//!   and [`viper::decode`], the one place a segment's bytes are read.
//! * [`alt`] — the header walk (route segments to the first local one,
//!   then the recovery list its descriptor counts) and the
//!   Slick-Packets-style failover built on it.
//! * [`packet`] — the full Sirpent packet: a chain of header segments,
//!   user data, and the return-route **trailer** that routers grow as the
//!   packet snakes through the internetwork — built, scanned, parsed, and
//!   stripped and grown per hop.
//! * [`buf`] — the shared packet buffer and borrowed segment view that
//!   make each hop's strip and append O(1).
//! * [`trailer`] — trailer entry encoding (reversed header segments,
//!   the truncation marker, and the base marker laid down by the source).
//! * [`ethernet`] — Ethernet II framing used as the canonical
//!   "network-specific" `portInfo` example throughout the paper.
//! * [`ipish`] — an IPv4-like baseline datagram header (version, TTL,
//!   fragmentation, Internet checksum) for the store-and-forward
//!   comparison router.
//! * [`cvc`] — concatenated-virtual-circuit (X.75-style) call control and
//!   data framing for the circuit-switched baseline.
//! * [`vmtp`] — a VMTP-like transport header and timestamp/checksum
//!   trailer, carrying the functions Sirpent deliberately evicts from the
//!   internetwork layer (§4 of the paper).
//! * [`token`] — the plaintext layout of the port-token capability body
//!   that `sirpent-token` seals into an encrypted, difficult-to-forge
//!   blob.
//!
//! ## Design idiom
//!
//! Each format is a plain value with `parse` from a byte slice and `emit`
//! into a caller-sized buffer (`viper::SegmentRepr`, `ethernet::Repr`,
//! `ipish::Repr`, `cvc::Message`, `vmtp::Header`, `token::Body`). Where
//! the per-hop path must not copy, parsing borrows instead: a VIPER
//! segment is read by one function, [`viper::decode`], into plain data —
//! port, flags, priority, branch, and the byte ranges of its variable
//! fields — which [`buf::SegmentView`] keeps against the shared packet
//! store, and [`vmtp::Packet`] borrows its payload. A body that travels
//! on is a [`buf::PacketBuf`] window, never a copy: a
//! [`cvc::Message::Data`] payload, and an [`ipish::Datagram`]'s payload
//! beside the header it holds by value. Parsing never panics
//! on hostile input: every read that could run off the end of the buffer
//! is a checked one returning [`Error`].
//!
//! No `unsafe`, no allocation on the parse path for the borrowed views.
//!
//! ```
//! use sirpent_wire::viper::{SegmentRepr, Priority, PORT_LOCAL};
//! use sirpent_wire::packet::{PacketBuilder, PacketView};
//!
//! // A two-hop route ending at the destination's local port.
//! let pkt = PacketBuilder::new()
//!     .segment(SegmentRepr { port: 3, priority: Priority::new(5), ..Default::default() })
//!     .segment(SegmentRepr::minimal(PORT_LOCAL))
//!     .payload(b"payload".to_vec())
//!     .build()
//!     .unwrap();
//! let view = PacketView::parse(&pkt).unwrap();
//! assert_eq!(view.route.len(), 2);
//! assert_eq!(view.data(&pkt), b"payload");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alt;
pub mod buf;
pub mod cvc;
pub mod ethernet;
pub mod ipish;
pub mod packet;
pub mod token;
pub mod trailer;
pub mod viper;
pub mod vmtp;

/// Errors produced while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the claimed structure.
    Truncated,
    /// A length field escape (255) was used but the 32-bit extended
    /// length does not fit or overlaps the end of the buffer.
    BadExtendedLength,
    /// A field holds a value that the format reserves or forbids.
    Malformed,
    /// A checksum did not verify (only formats that carry one: the IP
    /// baseline header and the VMTP trailer — VIPER itself has none by
    /// design).
    Checksum,
    /// The trailer walk did not terminate at a base marker.
    MissingTrailerBase,
    /// An unknown trailer entry kind was encountered.
    UnknownTrailerKind(u8),
    /// The packet would exceed the VIPER transmission unit (1500 bytes).
    ExceedsTransmissionUnit,
    /// A route exceeds the VIPER maximum of 48 header segments.
    TooManySegments,
    /// A trailer entry payload exceeds the u16 length field (65535
    /// bytes) and cannot be framed without corrupting the trailer walk.
    TrailerPayloadTooLong,
    /// An IP-like datagram's payload would wrap the 16-bit `total_len`
    /// field (payload > 65535 − header), forging a bogus tiny length.
    DatagramTooLong,
    /// An alternate branch's splice index points outside the recovery
    /// segment list, or past its last local-delivery terminator.
    BadSpliceIndex,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer too short for structure"),
            Error::BadExtendedLength => write!(f, "bad 255-escape extended length"),
            Error::Malformed => write!(f, "malformed field value"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::MissingTrailerBase => write!(f, "trailer walk found no base marker"),
            Error::UnknownTrailerKind(k) => write!(f, "unknown trailer entry kind {k}"),
            Error::ExceedsTransmissionUnit => {
                write!(f, "packet exceeds the 1500-byte VIPER transmission unit")
            }
            Error::TooManySegments => write!(f, "route exceeds 48 VIPER header segments"),
            Error::DatagramTooLong => {
                write!(f, "datagram payload would wrap the 16-bit total_len field")
            }
            Error::TrailerPayloadTooLong => {
                write!(
                    f,
                    "trailer entry payload exceeds the 65535-byte length field"
                )
            }
            Error::BadSpliceIndex => {
                write!(f, "alternate splice index outside the recovery list")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;

/// The VIPER transmission unit: 1500 bytes (§5 of the paper — "justified
/// by the de facto standard created by Ethernet").
pub const VIPER_TRANSMISSION_UNIT: usize = 1500;

/// Maximum number of VIPER header segments on a route (§2.3 — "a maximum
/// of 48 header segments (expected to be under 500 bytes long)").
pub const VIPER_MAX_SEGMENTS: usize = 48;

/// Nominal budget for the full route header implied by the 48-segment
/// limit (§2.3).
pub const VIPER_ROUTE_BYTE_BUDGET: usize = 500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            Error::Truncated.to_string(),
            Error::BadExtendedLength.to_string(),
            Error::Malformed.to_string(),
            Error::Checksum.to_string(),
            Error::MissingTrailerBase.to_string(),
            Error::UnknownTrailerKind(7).to_string(),
            Error::ExceedsTransmissionUnit.to_string(),
            Error::TooManySegments.to_string(),
            Error::BadSpliceIndex.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(Error::UnknownTrailerKind(7).to_string().contains('7'));
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(VIPER_TRANSMISSION_UNIT, 1500);
        assert_eq!(VIPER_MAX_SEGMENTS, 48);
        assert_eq!(VIPER_ROUTE_BYTE_BUDGET, 500);
    }
}
