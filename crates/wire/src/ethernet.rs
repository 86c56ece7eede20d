//! Ethernet II framing.
//!
//! The paper uses the Ethernet header as its running example of a
//! "network-specific" `portInfo` field: two 48-bit addresses plus a 16-bit
//! protocol type that "serves as a tag field specifying the format of the
//! rest of the packet" (§2). A router crossing an Ethernet hop swaps the
//! source/destination addresses when moving the header segment to the
//! trailer, so that the trailer entry "constitutes a correct return hop
//! through this router".

use crate::{Error, Result};

/// A 48-bit Ethernet (MAC) address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 6]);

impl Address {
    /// The broadcast address, ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: Address = Address([0xFF; 6]);

    /// Construct a locally-administered unicast address from a small
    /// integer — handy for simulations.
    pub fn from_index(i: u32) -> Address {
        let b = i.to_be_bytes();
        Address([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let a = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            a[0], a[1], a[2], a[3], a[4], a[5]
        )
    }
}

/// Protocol type values ("ethertypes") used in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// A Sirpent packet: the bytes after the Ethernet header are another
    /// VIPER header segment (§2: "the protocol type field contains a value
    /// associated with Sirpent").
    Sirpent,
    /// The IP-like baseline datagram protocol.
    Ipish,
    /// CVC (virtual-circuit baseline) framing.
    Cvc,
    /// A VMTP transport packet delivered directly to its final
    /// destination (§2: "the type field could designate a transport
    /// protocol if the destination Ethernet address is that of its final
    /// destination").
    Vmtp,
    /// Anything else.
    Unknown(u16),
}

impl EtherType {
    /// Ethertype assigned to Sirpent in this reproduction (from the
    /// experimental/public range).
    pub const SIRPENT_VALUE: u16 = 0x88B5;
    /// Ethertype for the IP-like baseline.
    pub const IPISH_VALUE: u16 = 0x0800;
    /// Ethertype for the CVC baseline.
    pub const CVC_VALUE: u16 = 0x88B6;
    /// Ethertype for direct VMTP delivery.
    pub const VMTP_VALUE: u16 = 0x88B7;

    /// Decode from the wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            Self::SIRPENT_VALUE => EtherType::Sirpent,
            Self::IPISH_VALUE => EtherType::Ipish,
            Self::CVC_VALUE => EtherType::Cvc,
            Self::VMTP_VALUE => EtherType::Vmtp,
            other => EtherType::Unknown(other),
        }
    }

    /// Encode to the wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Sirpent => Self::SIRPENT_VALUE,
            EtherType::Ipish => Self::IPISH_VALUE,
            EtherType::Cvc => Self::CVC_VALUE,
            EtherType::Vmtp => Self::VMTP_VALUE,
            EtherType::Unknown(v) => v,
        }
    }
}

/// Length of an Ethernet II header: 6 + 6 + 2.
pub const HEADER_LEN: usize = 14;

/// Length of the *compressed* network-specific form: destination + type
/// only. §2 footnote: "by agreement between the router and sources, the
/// network-specific portion may contain only the destination and type
/// fields, in which case the router would be responsible for filling in
/// the correct source address".
pub const COMPRESSED_LEN: usize = 8;

/// An owned Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Destination station.
    pub dst: Address,
    /// Source station.
    pub src: Address,
    /// Payload protocol tag.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse from the front of `buffer`.
    pub fn parse(buffer: &[u8]) -> Result<Repr> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buffer[0..6]);
        src.copy_from_slice(&buffer[6..12]);
        Ok(Repr {
            dst: Address(dst),
            src: Address(src),
            ethertype: EtherType::from_u16(u16::from_be_bytes([buffer[12], buffer[13]])),
        })
    }

    /// Bytes `emit` writes — always [`HEADER_LEN`].
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit into the front of `buffer`.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        buffer[0..6].copy_from_slice(&self.dst.0);
        buffer[6..12].copy_from_slice(&self.src.0);
        buffer[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        Ok(HEADER_LEN)
    }

    /// Emit into a fresh vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![0u8; HEADER_LEN];
        self.emit(&mut v).expect("sized exactly");
        v
    }

    /// Emit the compressed (destination + type) form; the source station
    /// is supplied by the forwarding router.
    pub fn to_compressed_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(COMPRESSED_LEN);
        v.extend_from_slice(&self.dst.0);
        v.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
        v
    }

    /// Parse the compressed form, filling in `src` (the router's own
    /// station address on the outgoing segment).
    pub fn parse_compressed(buffer: &[u8], src: Address) -> Result<Repr> {
        if buffer.len() < COMPRESSED_LEN {
            return Err(Error::Truncated);
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&buffer[0..6]);
        Ok(Repr {
            dst: Address(dst),
            src,
            ethertype: EtherType::from_u16(u16::from_be_bytes([buffer[6], buffer[7]])),
        })
    }

    /// The header for the *return* hop: source and destination swapped
    /// (§2: "with an Ethernet header, the destination and source addresses
    /// are swapped").
    pub fn reversed(&self) -> Repr {
        Repr {
            dst: self.src,
            src: self.dst,
            ethertype: self.ethertype,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let r = Repr {
            dst: Address::from_index(7),
            src: Address::from_index(9),
            ethertype: EtherType::Sirpent,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), 14);
        assert_eq!(Repr::parse(&bytes).unwrap(), r);
    }

    #[test]
    fn reversed_swaps_addresses() {
        let r = Repr {
            dst: Address::from_index(1),
            src: Address::from_index(2),
            ethertype: EtherType::Vmtp,
        };
        let rev = r.reversed();
        assert_eq!(rev.dst, r.src);
        assert_eq!(rev.src, r.dst);
        assert_eq!(rev.reversed(), r);
    }

    #[test]
    fn ethertype_codec() {
        for t in [
            EtherType::Sirpent,
            EtherType::Ipish,
            EtherType::Cvc,
            EtherType::Vmtp,
            EtherType::Unknown(0x1234),
        ] {
            assert_eq!(EtherType::from_u16(t.to_u16()), t);
        }
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Repr::parse(&[0u8; 13]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn compressed_form_roundtrips_with_router_src() {
        let full = Repr {
            dst: Address::from_index(5),
            src: Address::from_index(6),
            ethertype: EtherType::Sirpent,
        };
        let c = full.to_compressed_bytes();
        assert_eq!(c.len(), COMPRESSED_LEN);
        let back = Repr::parse_compressed(&c, Address::from_index(6)).unwrap();
        assert_eq!(back, full);
        // The router substitutes its own source regardless of sender.
        let other = Repr::parse_compressed(&c, Address::from_index(9)).unwrap();
        assert_eq!(other.src, Address::from_index(9));
        assert_eq!(other.dst, full.dst);
        assert!(Repr::parse_compressed(&c[..7], Address::from_index(1)).is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(Address::BROADCAST.is_broadcast());
        assert!(!Address::from_index(3).is_broadcast());
        assert_eq!(Address::from_index(3).to_string(), "02:00:00:00:00:03");
    }
}
