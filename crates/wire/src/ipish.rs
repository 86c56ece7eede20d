//! The IP-like baseline datagram header.
//!
//! The paper's primary comparison point is "a 'universal' internetwork
//! datagram, as in the DoD Internet IP protocol" (§1): every router must
//! "determine the next hop of the route from the destination address,
//! update the Time To Live (TTL) field, possibly fragment the packet and
//! update the header checksum before sending on the packet". This module
//! implements exactly that header (a faithful IPv4 layout) so the
//! store-and-forward baseline router pays the same per-packet costs the
//! paper attributes to IP.

use crate::{Error, Result};

/// A 32-bit internetwork address, rendered dotted-quad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub u32);

impl Address {
    /// Build from four octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Address {
        Address(u32::from_be_bytes([a, b, c, d]))
    }

    /// Network prefix of the given length.
    pub fn prefix(self, len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            self.0 & (!0u32 << (32 - len as u32))
        }
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// Header length without options (we carry none): 20 bytes.
pub const HEADER_LEN: usize = 20;

/// Largest payload a single datagram can carry: `total_len` is a 16-bit
/// field covering header + payload, so anything past this wraps the
/// field and forges a tiny bogus length.
pub const MAX_PAYLOAD: usize = u16::MAX as usize - HEADER_LEN;

/// The `total_len` value for a datagram carrying `payload` bytes, or
/// [`Error::DatagramTooLong`] when it would wrap the 16-bit field.
/// Builders must use this instead of `(HEADER_LEN + payload) as u16` —
/// the unchecked cast silently truncates near-65535 payloads.
pub fn checked_total_len(payload: usize) -> Result<u16> {
    if payload > MAX_PAYLOAD {
        return Err(Error::DatagramTooLong);
    }
    Ok((HEADER_LEN + payload) as u16)
}

/// Default TTL for new datagrams.
pub const DEFAULT_TTL: u8 = 32;

/// Protocol number of a datagram carrying a Sirpent packet (§2.3: "an
/// IP protocol number is assigned to the Sirpent protocol"). A router
/// whose tunnel port crosses an IP cloud stamps it on the datagram, and
/// the router at the far end demultiplexes on it.
pub const IPPROTO_SIRPENT: u8 = 0x5E;

/// The classic ones-complement Internet checksum over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// An owned IP-like header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Type-of-service byte.
    pub tos: u8,
    /// Total length of header + payload in bytes.
    pub total_len: u16,
    /// Datagram identification (shared by all fragments).
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Remaining hop budget; routers decrement and drop at zero.
    pub ttl: u8,
    /// Payload protocol number.
    pub protocol: u8,
    /// Source address.
    pub src: Address,
    /// Destination address.
    pub dst: Address,
}

impl Repr {
    /// Parse and **verify the header checksum** — the work IP forces on
    /// every router.
    pub fn parse(buffer: &[u8]) -> Result<Repr> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let vihl = buffer[0];
        if vihl != 0x45 {
            return Err(Error::Malformed);
        }
        if internet_checksum(&buffer[..HEADER_LEN]) != 0 {
            return Err(Error::Checksum);
        }
        let flags_frag = u16::from_be_bytes([buffer[6], buffer[7]]);
        Ok(Repr {
            tos: buffer[1],
            total_len: u16::from_be_bytes([buffer[2], buffer[3]]),
            ident: u16::from_be_bytes([buffer[4], buffer[5]]),
            dont_frag: flags_frag & 0x4000 != 0,
            more_frags: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1FFF,
            ttl: buffer[8],
            protocol: buffer[9],
            src: Address(u32::from_be_bytes([
                buffer[12], buffer[13], buffer[14], buffer[15],
            ])),
            dst: Address(u32::from_be_bytes([
                buffer[16], buffer[17], buffer[18], buffer[19],
            ])),
        })
    }

    /// Bytes `emit` writes — always [`HEADER_LEN`].
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit, computing the header checksum.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        if buffer.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        buffer[0] = 0x45;
        buffer[1] = self.tos;
        buffer[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buffer[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let mut ff = self.frag_offset & 0x1FFF;
        if self.dont_frag {
            ff |= 0x4000;
        }
        if self.more_frags {
            ff |= 0x2000;
        }
        buffer[6..8].copy_from_slice(&ff.to_be_bytes());
        buffer[8] = self.ttl;
        buffer[9] = self.protocol;
        buffer[10..12].copy_from_slice(&[0, 0]);
        buffer[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        buffer[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let csum = internet_checksum(&buffer[..HEADER_LEN]);
        buffer[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(HEADER_LEN)
    }

    /// Emit into a fresh vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![0u8; HEADER_LEN];
        self.emit(&mut v).expect("sized exactly");
        v
    }
}

/// In-place router update: decrement TTL and incrementally fix the header
/// checksum (RFC 1141 style) — the per-hop mutation the paper charges
/// against IP. Returns `false` (and leaves the buffer unchanged) when the
/// TTL has expired and the packet must be dropped.
pub fn decrement_ttl(buffer: &mut [u8]) -> Result<bool> {
    if buffer.len() < HEADER_LEN {
        return Err(Error::Truncated);
    }
    if buffer[8] <= 1 {
        return Ok(false);
    }
    buffer[8] -= 1;
    buffer[10..12].copy_from_slice(&[0, 0]);
    let csum = internet_checksum(&buffer[..HEADER_LEN]);
    buffer[10..12].copy_from_slice(&csum.to_be_bytes());
    Ok(true)
}

/// Fragment an IP-like datagram (header + payload in `packet`) to fit
/// `mtu`. Returns the fragments, each a complete datagram. Errors with
/// [`Error::Malformed`] when `dont_frag` is set and fragmentation is
/// needed — the caller then drops the packet.
pub fn fragment(packet: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>> {
    // A zero fragment budget can never carry anything — reject before
    // the fits-fast-path so an empty packet cannot sneak through as a
    // zero-byte "fragment" (the misconfigured-MTU failure mode).
    if mtu == 0 {
        return Err(Error::Malformed);
    }
    if packet.len() <= mtu {
        return Ok(vec![packet.to_vec()]);
    }
    let repr = Repr::parse(packet)?;
    if repr.dont_frag {
        return Err(Error::Malformed);
    }
    if mtu < HEADER_LEN + 8 {
        return Err(Error::Malformed);
    }
    let payload = &packet[HEADER_LEN..];
    // Fragment payload size must be a multiple of 8 except for the last.
    let chunk = ((mtu - HEADER_LEN) / 8) * 8;
    let mut frags = Vec::new();
    let mut off = 0usize;
    while off < payload.len() {
        let take = chunk.min(payload.len() - off);
        let last = off + take >= payload.len();
        let fr = Repr {
            total_len: (HEADER_LEN + take) as u16,
            more_frags: !last || repr.more_frags,
            frag_offset: repr.frag_offset + (off / 8) as u16,
            ..repr
        };
        let mut buf = fr.to_bytes();
        buf.extend_from_slice(&payload[off..off + take]);
        frags.push(buf);
        off += take;
    }
    Ok(frags)
}

/// Reassembly buffer for one datagram (keyed by src/dst/ident/protocol by
/// the caller). Exhibits the "all-or-nothing behavior of IP in the
/// reassembly of packets" the paper criticizes (§4.3): the datagram is
/// useless until every fragment has arrived.
#[derive(Debug, Clone)]
pub struct Reassembly {
    repr: Repr,
    data: Vec<u8>,
    have: Vec<(usize, usize)>,
    total: Option<usize>,
}

impl Reassembly {
    /// Create an empty reassembly context.
    pub fn new() -> Reassembly {
        Reassembly {
            repr: Repr {
                tos: 0,
                total_len: 0,
                ident: 0,
                dont_frag: false,
                more_frags: false,
                frag_offset: 0,
                ttl: 0,
                protocol: 0,
                src: Address(0),
                dst: Address(0),
            },
            data: Vec::new(),
            have: Vec::new(),
            total: None,
        }
    }

    /// Feed one fragment. Returns the reassembled datagram when complete.
    pub fn push(&mut self, fragment: &[u8]) -> Result<Option<Vec<u8>>> {
        let repr = Repr::parse(fragment)?;
        let end = repr.total_len as usize;
        if end < HEADER_LEN || end > fragment.len() {
            // A wrapped or forged total_len must never index the buffer.
            return Err(Error::Truncated);
        }
        let payload = &fragment[HEADER_LEN..end];
        let start = repr.frag_offset as usize * 8;
        let end = start + payload.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[start..end].copy_from_slice(payload);
        self.have.push((start, end));
        if !repr.more_frags {
            self.total = Some(end);
        }
        if repr.frag_offset == 0 {
            self.repr = repr;
        }
        if let Some(total) = self.total {
            // Complete iff every byte of [0, total) is covered.
            let mut covered = vec![false; total];
            for &(s, e) in &self.have {
                for c in covered.iter_mut().take(e.min(total)).skip(s.min(total)) {
                    *c = true;
                }
            }
            if covered.iter().all(|&c| c) {
                let hdr = Repr {
                    total_len: (HEADER_LEN + total) as u16,
                    more_frags: false,
                    frag_offset: 0,
                    ..self.repr
                };
                let mut out = hdr.to_bytes();
                out.extend_from_slice(&self.data[..total]);
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

impl Default for Reassembly {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Repr {
        Repr {
            tos: 0,
            total_len: 20,
            ident: 0x1234,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: DEFAULT_TTL,
            protocol: 17,
            src: Address::new(10, 0, 0, 1),
            dst: Address::new(10, 0, 1, 2),
        }
    }

    #[test]
    fn header_roundtrip_with_checksum() {
        let r = header();
        let bytes = r.to_bytes();
        assert_eq!(internet_checksum(&bytes), 0, "checksum over header is 0");
        assert_eq!(Repr::parse(&bytes).unwrap(), r);
    }

    #[test]
    fn corrupted_header_rejected() {
        // IP's behaviour: corruption is detected at the next router and
        // the packet dropped — contrast with Sirpent's checksum-free
        // header (E12).
        let r = header();
        let bytes = r.to_bytes();
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x40;
            assert!(Repr::parse(&c).is_err(), "flip at byte {i} must fail");
        }
    }

    #[test]
    fn ttl_decrement_preserves_checksum() {
        let r = header();
        let mut bytes = r.to_bytes();
        for expect in (1..DEFAULT_TTL).rev() {
            assert!(decrement_ttl(&mut bytes).unwrap());
            let back = Repr::parse(&bytes).expect("checksum still valid");
            assert_eq!(back.ttl, expect);
        }
        // Expired: refuse to forward.
        assert!(!decrement_ttl(&mut bytes).unwrap());
    }

    #[test]
    fn fragmentation_roundtrip() {
        let payload: Vec<u8> = (0..997u32).map(|i| i as u8).collect();
        let mut pkt = Repr {
            total_len: (HEADER_LEN + payload.len()) as u16,
            ..header()
        }
        .to_bytes();
        pkt.extend_from_slice(&payload);

        let frags = fragment(&pkt, 256).unwrap();
        assert!(frags.len() > 1);
        for f in &frags {
            assert!(f.len() <= 256);
        }

        let mut re = Reassembly::new();
        let mut done = None;
        // Deliver out of order to exercise hole tracking.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        order.reverse();
        for i in order {
            if let Some(d) = re.push(&frags[i]).unwrap() {
                done = Some(d);
            }
        }
        let done = done.expect("reassembly completes");
        assert_eq!(&done[HEADER_LEN..], &payload[..]);
    }

    #[test]
    fn all_or_nothing_reassembly() {
        // Missing one fragment ⇒ nothing is delivered (§4.3 criticism).
        let payload = vec![7u8; 600];
        let mut pkt = Repr {
            total_len: (HEADER_LEN + payload.len()) as u16,
            ..header()
        }
        .to_bytes();
        pkt.extend_from_slice(&payload);
        let frags = fragment(&pkt, 256).unwrap();
        assert!(frags.len() >= 3);
        let mut re = Reassembly::new();
        for (i, f) in frags.iter().enumerate() {
            if i == 1 {
                continue; // lost fragment
            }
            assert!(re.push(f).unwrap().is_none());
        }
    }

    #[test]
    fn dont_frag_blocks_fragmentation() {
        let payload = vec![1u8; 600];
        let mut pkt = Repr {
            total_len: (HEADER_LEN + payload.len()) as u16,
            dont_frag: true,
            ..header()
        }
        .to_bytes();
        pkt.extend_from_slice(&payload);
        assert!(fragment(&pkt, 256).is_err());
    }

    #[test]
    fn total_len_boundaries() {
        // 65535 − HEADER_LEN fits exactly; one more wraps the 16-bit
        // field and must be refused at build time.
        assert_eq!(checked_total_len(MAX_PAYLOAD), Ok(u16::MAX));
        assert_eq!(
            checked_total_len(MAX_PAYLOAD + 1),
            Err(Error::DatagramTooLong)
        );
        assert_eq!(checked_total_len(0), Ok(HEADER_LEN as u16));
    }

    #[test]
    fn zero_mtu_is_rejected() {
        // Even an empty packet must not escape through the fits-fast-path
        // as a zero-byte "fragment".
        assert!(fragment(&[], 0).is_err());
        let pkt = header().to_bytes();
        assert!(fragment(&pkt, 0).is_err());
        // A budget below header + 8 is equally unusable once the packet
        // actually needs splitting.
        let mut big = Repr {
            total_len: (HEADER_LEN + 64) as u16,
            ..header()
        }
        .to_bytes();
        big.extend_from_slice(&[0u8; 64]);
        assert!(fragment(&big, HEADER_LEN + 7).is_err());
    }

    #[test]
    fn reassembly_rejects_forged_total_len() {
        // A total_len pointing past the buffer (or inside the header)
        // must error instead of indexing out of bounds.
        let mut short = Repr {
            total_len: (HEADER_LEN + 64) as u16,
            ..header()
        }
        .to_bytes();
        short.extend_from_slice(&[0u8; 8]); // 56 bytes missing
        let mut re = Reassembly::new();
        assert_eq!(re.push(&short), Err(Error::Truncated));

        let tiny = Repr {
            total_len: (HEADER_LEN - 1) as u16,
            ..header()
        }
        .to_bytes();
        assert_eq!(Reassembly::new().push(&tiny), Err(Error::Truncated));
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 style check on a fixed vector.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn prefix_matching() {
        let a = Address::new(192, 168, 17, 5);
        assert_eq!(a.prefix(16), Address::new(192, 168, 0, 0).0);
        assert_eq!(a.prefix(24), Address::new(192, 168, 17, 0).0);
        assert_eq!(a.prefix(0), 0);
        assert_eq!(a.prefix(32), a.0);
        assert_eq!(a.to_string(), "192.168.17.5");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn fragment_reassemble_identity(
            len in 1usize..2000,
            mtu in 64usize..512,
            seed in any::<u64>(),
        ) {
            let payload: Vec<u8> =
                (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
            let mut pkt = Repr {
                tos: 0,
                total_len: (HEADER_LEN + payload.len()) as u16,
                ident: seed as u16,
                dont_frag: false,
                more_frags: false,
                frag_offset: 0,
                ttl: 9,
                protocol: 6,
                src: Address(seed as u32),
                dst: Address((seed >> 32) as u32),
            }
            .to_bytes();
            pkt.extend_from_slice(&payload);
            let frags = fragment(&pkt, mtu).unwrap();
            let mut re = Reassembly::new();
            let mut out = None;
            for f in &frags {
                prop_assert!(f.len() <= mtu.max(HEADER_LEN + 8));
                if let Some(d) = re.push(f).unwrap() {
                    out = Some(d);
                }
            }
            let out = out.expect("complete");
            prop_assert_eq!(&out[HEADER_LEN..], &payload[..]);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Repr::parse(&bytes);
        }
    }
}
