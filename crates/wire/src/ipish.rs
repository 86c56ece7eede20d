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

use crate::buf::PacketBuf;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

/// A datagram as nodes hand it on: the header held by value, the
/// payload a shared window. A router rewrites its own copy of the header
/// and passes the payload on untouched, a fragment is a window onto the
/// same store, and a tunnel puts a header in front of a Sirpent packet
/// without copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Datagram {
    header: [u8; HEADER_LEN],
    /// [`HEADER_LEN`], or fewer for a runt too short to hold a header
    /// (whose payload is then empty).
    header_len: u8,
    /// The bytes behind the header.
    pub payload: PacketBuf,
}

impl Datagram {
    /// `repr`'s header in front of `payload`.
    pub fn new(repr: &Repr, payload: PacketBuf) -> Datagram {
        let mut header = [0; HEADER_LEN];
        let n = repr.emit(&mut header).unwrap_or_default();
        Datagram::from_parts(&header[..n], payload)
    }

    /// A datagram received as `header` — its first [`HEADER_LEN`] bytes,
    /// or all of a runt's — in front of `payload`. Nothing is verified:
    /// [`Repr::parse`] of [`Self::header`] does that.
    pub fn from_parts(header: &[u8], payload: PacketBuf) -> Datagram {
        let mut d = Datagram {
            payload,
            ..Datagram::default()
        };
        for (to, &from) in d.header.iter_mut().zip(header) {
            *to = from;
            d.header_len += 1;
        }
        d
    }

    /// The header bytes.
    pub fn header(&self) -> &[u8] {
        &self.header[..usize::from(self.header_len)]
    }

    /// The header bytes, for a router's in-place rewrite.
    pub fn header_mut(&mut self) -> &mut [u8] {
        &mut self.header[..usize::from(self.header_len)]
    }

    /// Header and payload bytes.
    pub fn len(&self) -> usize {
        usize::from(self.header_len) + self.payload.len()
    }

    /// Whether the datagram has no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// The largest fragment offset, in 8-byte units: the field has 13 bits.
const MAX_FRAG_OFFSET: usize = 0x1FFF;

/// Cut `datagram` into pieces of at most `mtu` bytes each, in offset
/// order. A datagram that fits is its own one piece, header untouched;
/// otherwise each fragment is a fresh header in front of a window onto
/// the same payload store. Errors with [`Error::Malformed`] when
/// `dont_frag` is set and fragmentation is needed, or when a fragment's
/// offset would not fit its 13-bit field — the caller then drops the
/// packet.
pub fn fragment(datagram: Datagram, mtu: usize) -> Result<impl Iterator<Item = Datagram>> {
    // A zero fragment budget can never carry anything — reject before
    // the fits-fast-path so an empty packet cannot sneak through as a
    // zero-byte "fragment" (the misconfigured-MTU failure mode).
    if mtu == 0 {
        return Err(Error::Malformed);
    }
    // The next fragment's header and the payload bytes each carries;
    // `None` when the datagram goes whole.
    let mut split = None;
    if datagram.len() > mtu {
        let repr = Repr::parse(datagram.header())?;
        if repr.dont_frag || mtu < HEADER_LEN + 8 {
            return Err(Error::Malformed);
        }
        // Fragment payload size must be a multiple of 8 except for the last.
        let chunk = ((mtu - HEADER_LEN) / 8) * 8;
        let last_offset = datagram.payload.len().saturating_sub(1) / chunk * chunk / 8;
        if usize::from(repr.frag_offset) + last_offset > MAX_FRAG_OFFSET {
            return Err(Error::Malformed);
        }
        split = Some((repr, chunk));
    }
    let mut rest = Some(datagram);
    Ok(std::iter::from_fn(move || {
        let mut whole = rest.take()?;
        let Some((repr, chunk)) = split.as_mut() else {
            return Some(whole);
        };
        let take = whole.payload.len().min(*chunk);
        let last = take == whole.payload.len();
        let mut piece = whole.payload.clone();
        piece.truncate(take);
        let header = Repr {
            total_len: (HEADER_LEN + take) as u16,
            more_frags: !last || repr.more_frags,
            ..*repr
        };
        if !last {
            repr.frag_offset += (take / 8) as u16;
            whole.payload.advance(take);
            rest = Some(whole);
        }
        Some(Datagram::new(&header, piece))
    }))
}

/// Reassembly buffer for one datagram (keyed by src/dst/ident/protocol by
/// the caller). Exhibits the "all-or-nothing behavior of IP in the
/// reassembly of packets" the paper criticizes (§4.3): the datagram is
/// useless until every fragment has arrived.
#[derive(Debug, Clone, Default)]
pub struct Reassembly {
    repr: Repr,
    data: Vec<u8>,
    have: Vec<(usize, usize)>,
    total: Option<usize>,
}

impl Reassembly {
    /// Create an empty reassembly context.
    pub fn new() -> Reassembly {
        Reassembly::default()
    }

    /// Feed one fragment. Returns the reassembled datagram when complete;
    /// errors with [`Error::DatagramTooLong`] when the fragments cover
    /// more than one datagram's `total_len` can state.
    pub fn push(&mut self, fragment: &Datagram) -> Result<Option<Datagram>> {
        let repr = Repr::parse(fragment.header())?;
        let end = repr.total_len as usize;
        if end < HEADER_LEN || end > fragment.len() {
            // A wrapped or forged total_len must never index the buffer.
            return Err(Error::Truncated);
        }
        let payload = &fragment.payload[..end - HEADER_LEN];
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
                    total_len: checked_total_len(total)?,
                    more_frags: false,
                    frag_offset: 0,
                    ..self.repr
                };
                return Ok(Some(Datagram::new(
                    &hdr,
                    PacketBuf::from(&self.data[..total]),
                )));
            }
        }
        Ok(None)
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

    /// `r`'s header in front of `payload`, with `total_len` set to match.
    fn datagram(r: Repr, payload: &[u8]) -> Datagram {
        let r = Repr {
            total_len: (HEADER_LEN + payload.len()) as u16,
            ..r
        };
        Datagram::new(&r, PacketBuf::from(payload))
    }

    #[test]
    fn header_roundtrip_with_checksum() {
        let r = header();
        let d = Datagram::new(&r, PacketBuf::new());
        assert_eq!(
            internet_checksum(d.header()),
            0,
            "checksum over header is 0"
        );
        assert_eq!(Repr::parse(d.header()).unwrap(), r);
    }

    #[test]
    fn corrupted_header_rejected() {
        // IP's behaviour: corruption is detected at the next router and
        // the packet dropped — contrast with Sirpent's checksum-free
        // header (E12).
        let d = Datagram::new(&header(), PacketBuf::new());
        for i in 0..HEADER_LEN {
            let mut c = d.clone();
            c.header_mut()[i] ^= 0x40;
            assert!(
                Repr::parse(c.header()).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn ttl_decrement_preserves_checksum() {
        let mut d = Datagram::new(&header(), PacketBuf::new());
        for expect in (1..DEFAULT_TTL).rev() {
            assert!(decrement_ttl(d.header_mut()).unwrap());
            let back = Repr::parse(d.header()).expect("checksum still valid");
            assert_eq!(back.ttl, expect);
        }
        // Expired: refuse to forward.
        assert!(!decrement_ttl(d.header_mut()).unwrap());
    }

    #[test]
    fn fragmentation_roundtrip() {
        let payload: Vec<u8> = (0..997u32).map(|i| i as u8).collect();
        let pkt = datagram(header(), &payload);

        let frags: Vec<Datagram> = fragment(pkt.clone(), 256).unwrap().collect();
        assert!(frags.len() > 1);
        for f in &frags {
            assert!(f.len() <= 256);
            // Every fragment is a window onto the datagram's payload.
            assert!(f.payload.shares_store_with(&pkt.payload));
        }

        let mut re = Reassembly::new();
        let mut done = None;
        // Deliver out of order to exercise hole tracking.
        for f in frags.iter().rev() {
            if let Some(d) = re.push(f).unwrap() {
                done = Some(d);
            }
        }
        let done = done.expect("reassembly completes");
        assert_eq!(done.payload.as_slice(), &payload[..]);
    }

    #[test]
    fn a_datagram_that_fits_goes_whole() {
        let mut pkt = datagram(header(), &[3; 100]);
        pkt.header_mut()[6] |= 0x80; // the reserved flag, which a re-emit would clear
        let pieces: Vec<Datagram> = fragment(pkt.clone(), 120).unwrap().collect();
        assert_eq!(pieces, [pkt.clone()]);
        assert!(pieces[0].payload.shares_store_with(&pkt.payload));
    }

    #[test]
    fn all_or_nothing_reassembly() {
        // Missing one fragment ⇒ nothing is delivered (§4.3 criticism).
        let frags: Vec<Datagram> = fragment(datagram(header(), &[7; 600]), 256)
            .unwrap()
            .collect();
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
        let r = Repr {
            dont_frag: true,
            ..header()
        };
        assert!(fragment(datagram(r, &[1; 600]), 256).is_err());
    }

    /// A fragment that arrives with a high offset may not be cut into
    /// pieces whose offsets run past the 13-bit field: they would wrap to
    /// near 0 and overwrite the datagram's front at reassembly.
    #[test]
    fn fragment_offsets_never_wrap() {
        let high = |frag_offset| Repr {
            frag_offset,
            more_frags: true,
            ..header()
        };
        assert!(matches!(
            fragment(datagram(high(8150), &[9; 1400]), 600),
            Err(Error::Malformed)
        ));
        // The last piece of 1 400 B at a 600 B MTU starts 2 × 576 B in:
        // offset 8 191 − 144 is the highest that still fits.
        let pieces: Vec<Datagram> = fragment(datagram(high(8047), &[9; 1400]), 600)
            .unwrap()
            .collect();
        let offsets: Vec<u16> = pieces
            .iter()
            .map(|p| Repr::parse(p.header()).unwrap().frag_offset)
            .collect();
        assert_eq!(offsets, [8047, 8119, 8191]);
        assert!(fragment(datagram(high(8048), &[9; 1400]), 600).is_err());
    }

    /// Fragments that cover more than a datagram's 16-bit `total_len`
    /// can state are refused, not reassembled under a wrapped length.
    #[test]
    fn reassembly_refuses_a_length_past_the_total_len_field() {
        let piece = |frag_offset, len, more_frags| {
            datagram(
                Repr {
                    frag_offset,
                    more_frags,
                    ..header()
                },
                &vec![5; len],
            )
        };
        let mut re = Reassembly::new();
        assert_eq!(re.push(&piece(0, 65_512, true)), Ok(None));
        assert_eq!(re.push(&piece(8_189, 16, true)), Ok(None));
        assert_eq!(
            re.push(&piece(8_191, 8, false)),
            Err(Error::DatagramTooLong)
        );
        // The largest datagram still reassembles.
        let mut re = Reassembly::new();
        assert_eq!(re.push(&piece(0, 65_512, true)), Ok(None));
        let done = re.push(&piece(8_189, 3, false)).unwrap().expect("complete");
        assert_eq!(done.len(), usize::from(u16::MAX));
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
        assert!(fragment(Datagram::default(), 0).is_err());
        assert!(fragment(datagram(header(), &[]), 0).is_err());
        // A budget below header + 8 is equally unusable once the packet
        // actually needs splitting.
        assert!(fragment(datagram(header(), &[0; 64]), HEADER_LEN + 7).is_err());
    }

    #[test]
    fn reassembly_rejects_forged_total_len() {
        // A total_len pointing past the buffer (or inside the header)
        // must error instead of indexing out of bounds.
        let long = Repr {
            total_len: (HEADER_LEN + 64) as u16,
            ..header()
        };
        let short = Datagram::new(&long, PacketBuf::from(&[0u8; 8])); // 56 bytes missing
        let mut re = Reassembly::new();
        assert_eq!(re.push(&short), Err(Error::Truncated));

        let tiny = Repr {
            total_len: (HEADER_LEN - 1) as u16,
            ..header()
        };
        let tiny = Datagram::new(&tiny, PacketBuf::new());
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
            let repr = Repr {
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
            };
            let pkt = Datagram::new(&repr, PacketBuf::from(&payload[..]));
            let mut re = Reassembly::new();
            let mut out = None;
            for f in fragment(pkt, mtu).unwrap() {
                prop_assert!(f.len() <= mtu.max(HEADER_LEN + 8));
                if let Some(d) = re.push(&f).unwrap() {
                    out = Some(d);
                }
            }
            let out = out.expect("complete");
            prop_assert_eq!(out.payload.as_slice(), &payload[..]);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Repr::parse(&bytes);
        }
    }
}
