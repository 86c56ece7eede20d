//! A VMTP-like transport header and trailer.
//!
//! Sirpent "places greater requirements on the transport level" (§4):
//! because the internetwork layer has no checksum, no TTL and no
//! fragmentation, the transport must itself provide
//!
//! * **misdelivery detection** via a "64-bit transport layer identifier
//!   which is unique independent of the (inter)network layer addressing"
//!   (§4.1) — no pseudo-header;
//! * **maximum-packet-lifetime enforcement** via a "32-bit timestamp in
//!   the trailer of the packet (along with the checksum)" representing
//!   "the time in milliseconds since January 1, 1970, modulo 2³²" with 0
//!   reserved to mean *invalid/ignore* (§4.2);
//! * **large-message handling** via packet groups with selective
//!   retransmission instead of network fragmentation (§4.3).
//!
//! The header layout here is a simplification of RFC 1045 that keeps all
//! the fields those functions need.

use crate::{Error, Result};

/// A 64-bit network-independent transport entity identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EntityId(pub u64);

impl core::fmt::Display for EntityId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "E{:016x}", self.0)
    }
}

/// Packet kind within a message transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A request (client → server) data packet.
    Request,
    /// A response (server → client) data packet.
    Response,
    /// Acknowledgement / selective-retransmission control packet; the
    /// `delivery_mask` reports which group members arrived.
    Ack,
}

impl Kind {
    fn to_u8(self) -> u8 {
        match self {
            Kind::Request => 1,
            Kind::Response => 2,
            Kind::Ack => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Kind> {
        match v {
            1 => Ok(Kind::Request),
            2 => Ok(Kind::Response),
            3 => Ok(Kind::Ack),
            _ => Err(Error::Malformed),
        }
    }
}

/// Maximum packets in one packet group (the delivery mask is 32 bits).
pub const MAX_GROUP: usize = 32;

/// Fixed header length.
pub const HEADER_LEN: usize = 8 + 8 + 4 + 1 + 1 + 1 + 1 + 4 + 4 + 2;

/// Trailer length: 32-bit timestamp + 32-bit checksum (§4.2 / revised
/// VMTP: "a 32-bit timestamp in the trailer of the packet (along with the
/// checksum)").
pub const TRAILER_LEN: usize = 8;

/// Timestamp value reserved to mean "invalid, ignore" — "for use by query
/// operations when a machine is booting before it knows the current time"
/// (§4.2).
pub const TIMESTAMP_INVALID: u32 = 0;

/// An owned VMTP-like header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Sending transport entity (client for requests, server for
    /// responses).
    pub src: EntityId,
    /// Intended receiving transport entity. Misdelivered packets fail
    /// this check regardless of where the network dropped them.
    pub dst: EntityId,
    /// Transaction identifier; reuse is guarded by the MPL mechanism.
    pub transaction: u32,
    /// Request / response / ack.
    pub kind: Kind,
    /// Number of packets in this packet group (1..=32).
    pub group_size: u8,
    /// Index of this packet within its group (0-based).
    pub group_index: u8,
    /// Delivery mask: on `Ack`, the bitmap of received group members; on
    /// data packets, zero.
    pub delivery_mask: u32,
    /// Total length of the logical message carried by the group.
    pub message_len: u32,
    /// Length of this packet's payload.
    pub payload_len: u16,
}

impl Header {
    /// Bytes `emit` writes — always [`HEADER_LEN`].
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit into the front of `buffer`.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.group_size == 0
            || self.group_size as usize > MAX_GROUP
            || self.group_index >= self.group_size
        {
            return Err(Error::Malformed);
        }
        buffer[0..8].copy_from_slice(&self.src.0.to_be_bytes());
        buffer[8..16].copy_from_slice(&self.dst.0.to_be_bytes());
        buffer[16..20].copy_from_slice(&self.transaction.to_be_bytes());
        buffer[20] = self.kind.to_u8();
        buffer[21] = self.group_size;
        buffer[22] = self.group_index;
        buffer[23] = 0;
        buffer[24..28].copy_from_slice(&self.delivery_mask.to_be_bytes());
        buffer[28..32].copy_from_slice(&self.message_len.to_be_bytes());
        buffer[32..34].copy_from_slice(&self.payload_len.to_be_bytes());
        Ok(HEADER_LEN)
    }

    /// Parse from the front of `buffer`.
    pub fn parse(buffer: &[u8]) -> Result<Header> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let h = Header {
            src: EntityId(u64::from_be_bytes(buffer[0..8].try_into().unwrap())),
            dst: EntityId(u64::from_be_bytes(buffer[8..16].try_into().unwrap())),
            transaction: u32::from_be_bytes(buffer[16..20].try_into().unwrap()),
            kind: Kind::from_u8(buffer[20])?,
            group_size: buffer[21],
            group_index: buffer[22],
            delivery_mask: u32::from_be_bytes(buffer[24..28].try_into().unwrap()),
            message_len: u32::from_be_bytes(buffer[28..32].try_into().unwrap()),
            payload_len: u16::from_be_bytes(buffer[32..34].try_into().unwrap()),
        };
        if h.group_size == 0 || h.group_size as usize > MAX_GROUP || h.group_index >= h.group_size {
            return Err(Error::Malformed);
        }
        Ok(h)
    }
}

/// The checksum's modulus (the largest prime below 2¹⁶).
const CHECKSUM_BASE: u32 = 65521;

/// The most bytes both running sums can absorb, starting below
/// [`CHECKSUM_BASE`], before either can overflow a `u32`:
/// `(n + 1)(BASE − 1) + 255 n(n + 1)/2 ≤ 2³² − 1` (Adler-32's bound).
const CHECKSUM_RUN: usize = 5552;

/// Fletcher-style 32-bit checksum over transport header + payload +
/// timestamp. (The transport owns end-to-end integrity; the network
/// carries no checksum at all.)
///
/// Defined byte by byte as `a = (a + byte) mod 65521; b = (b + a) mod
/// 65521`. The sums are reduced only once per run of 5552 bytes — the
/// longest that cannot overflow them — which yields the same residues
/// an order of magnitude faster.
pub fn transport_checksum(data: &[u8]) -> u32 {
    let mut a: u32 = 0xF00D;
    let mut b: u32 = 0xBEEF;
    for run in data.chunks(CHECKSUM_RUN) {
        for &byte in run {
            a += byte as u32;
            b += a;
        }
        a %= CHECKSUM_BASE;
        b %= CHECKSUM_BASE;
    }
    (b << 16) | a
}

/// A complete VMTP packet: header, payload, trailer. The payload is
/// borrowed — from the received bytes on the way in, from the sender's
/// message buffer on the way out — so neither direction copies it to
/// get at the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet<'a> {
    /// The transport header.
    pub header: Header,
    /// User bytes.
    pub payload: &'a [u8],
    /// Creation timestamp, milliseconds since the epoch mod 2³²;
    /// [`TIMESTAMP_INVALID`] means "ignore".
    pub timestamp: u32,
}

impl<'a> Packet<'a> {
    /// Serialize into the front of `buffer` (at least
    /// [`Packet::wire_len`] bytes): header, payload, then the
    /// timestamp+checksum trailer. Returns the bytes written.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        if self.payload.len() != self.header.payload_len as usize {
            return Err(Error::Malformed);
        }
        let len = self.wire_len();
        let buffer = buffer.get_mut(..len).ok_or(Error::Truncated)?;
        let (summed, csum) = buffer.split_at_mut(len - 4);
        let (head, rest) = summed.split_at_mut(HEADER_LEN);
        self.header.emit(head)?;
        let (payload, timestamp) = rest.split_at_mut(self.payload.len());
        payload.copy_from_slice(self.payload);
        timestamp.copy_from_slice(&self.timestamp.to_be_bytes());
        csum.copy_from_slice(&transport_checksum(summed).to_be_bytes());
        Ok(len)
    }

    /// Serialize into a fresh vector.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut v = vec![0u8; self.wire_len()];
        self.emit(&mut v)?;
        Ok(v)
    }

    /// Parse and verify the end-to-end checksum. The returned packet
    /// borrows its payload from `buffer`.
    ///
    /// `buffer` may carry trailing null padding (Sirpent permits padding
    /// between data and its own trailer); the transport's `payload_len`
    /// field delimits the real content, so extra bytes after the trailer
    /// are ignored.
    pub fn parse(buffer: &'a [u8]) -> Result<Packet<'a>> {
        let header = Header::parse(buffer)?;
        let need = HEADER_LEN + header.payload_len as usize + TRAILER_LEN;
        if buffer.len() < need {
            return Err(Error::Truncated);
        }
        let payload_end = HEADER_LEN + header.payload_len as usize;
        let timestamp =
            u32::from_be_bytes(buffer[payload_end..payload_end + 4].try_into().unwrap());
        let claimed =
            u32::from_be_bytes(buffer[payload_end + 4..payload_end + 8].try_into().unwrap());
        if transport_checksum(&buffer[..payload_end + 4]) != claimed {
            return Err(Error::Checksum);
        }
        Ok(Packet {
            header,
            payload: &buffer[HEADER_LEN..payload_end],
            timestamp,
        })
    }

    /// Total wire size of this packet.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + TRAILER_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(payload_len: u16) -> Header {
        Header {
            src: EntityId(0x1111_2222_3333_4444),
            dst: EntityId(0x5555_6666_7777_8888),
            transaction: 99,
            kind: Kind::Request,
            group_size: 4,
            group_index: 2,
            delivery_mask: 0,
            message_len: 4000,
            payload_len,
        }
    }

    #[test]
    fn packet_roundtrip() {
        let p = Packet {
            header: header(13),
            payload: b"thirteen byte",
            timestamp: 123_456_789,
        };
        let bytes = p.to_bytes().unwrap();
        assert_eq!(bytes.len(), p.wire_len());
        assert_eq!(Packet::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn corruption_detected_anywhere() {
        let p = Packet {
            header: header(32),
            payload: &[0xA5; 32],
            timestamp: 42,
        };
        let bytes = p.to_bytes().unwrap();
        let mut survived = 0;
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x01;
            if let Ok(q) = Packet::parse(&c) {
                // A flip in padding-insensitive fields may parse but must
                // not produce the same packet silently.
                if q == p {
                    survived += 1;
                }
            }
        }
        assert_eq!(survived, 0, "no single-bit flip may go unnoticed");
    }

    #[test]
    fn trailing_padding_ignored() {
        let p = Packet {
            header: header(5),
            payload: b"hello",
            timestamp: 1,
        };
        let mut bytes = p.to_bytes().unwrap();
        bytes.extend_from_slice(&[0u8; 40]);
        assert_eq!(Packet::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn payload_len_mismatch_rejected() {
        let p = Packet {
            header: header(10),
            payload: &[0; 5],
            timestamp: 1,
        };
        assert_eq!(p.to_bytes().unwrap_err(), Error::Malformed);
    }

    #[test]
    fn group_bounds_enforced() {
        let mut h = header(0);
        h.group_size = 0;
        assert!(h.emit(&mut [0u8; HEADER_LEN]).is_err());
        h.group_size = 33;
        assert!(h.emit(&mut [0u8; HEADER_LEN]).is_err());
        h.group_size = 4;
        h.group_index = 4;
        assert!(h.emit(&mut [0u8; HEADER_LEN]).is_err());
    }

    #[test]
    fn entity_ids_are_64_bit() {
        // §4.1: "The major cost, the larger size of transport identifiers
        // (64-bits in VMTP versus 16 bits in TCP), is not significant
        // with the higher network data rates."
        assert_eq!(std::mem::size_of::<EntityId>(), 8);
        assert_eq!(EntityId(0xABCD).to_string(), "E000000000000abcd");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip(src in any::<u64>(), dst in any::<u64>(), txn in any::<u32>(),
                     gsize in 1u8..=32, payload in proptest::collection::vec(any::<u8>(), 0..600),
                     ts in any::<u32>()) {
            let h = Header {
                src: EntityId(src),
                dst: EntityId(dst),
                transaction: txn,
                kind: Kind::Response,
                group_size: gsize,
                group_index: gsize - 1,
                delivery_mask: 0,
                message_len: payload.len() as u32,
                payload_len: payload.len() as u16,
            };
            let p = Packet { header: h, payload: &payload, timestamp: ts };
            let bytes = p.to_bytes().unwrap();
            prop_assert_eq!(Packet::parse(&bytes).unwrap(), p);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Packet::parse(&bytes);
            let _ = Header::parse(&bytes);
        }

        /// The deferred modulo is the per-byte definition, also across
        /// run boundaries and on the all-ones worst case for overflow.
        #[test]
        fn checksum_matches_its_per_byte_definition(
            bytes in proptest::collection::vec(any::<u8>(), 0..1600),
            ones in 0usize..3 * CHECKSUM_RUN,
        ) {
            fn per_byte(data: &[u8]) -> u32 {
                let (mut a, mut b) = (0xF00D_u32, 0xBEEF_u32);
                for &byte in data {
                    a = (a + byte as u32) % CHECKSUM_BASE;
                    b = (b + a) % CHECKSUM_BASE;
                }
                (b << 16) | a
            }
            prop_assert_eq!(transport_checksum(&bytes), per_byte(&bytes));
            let mut long = vec![0xFF; ones];
            long.extend_from_slice(&bytes);
            prop_assert_eq!(transport_checksum(&long), per_byte(&long));
        }
    }
}
