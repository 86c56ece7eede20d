//! Link-layer framing shared by all node types.
//!
//! On a **point-to-point** link the paper says "the initial header
//! segment format is implicit from the network type" (§2); since our
//! point-to-point links carry several protocols (Sirpent, the rate-
//! control feedback, and the IP/CVC baselines), we concretize that with a
//! one-byte protocol tag, plus — for Sirpent frames — the one-byte
//! **feed-forward** queue hint of §2.2 ("packets include information on
//! the number of packets queued behind them at their previous router").
//!
//! On an **Ethernet**, the standard 14-byte header carries the protocol
//! tag in its type field, exactly as the paper's running example; the
//! feed-forward shim is also present after the Ethernet header for
//! Sirpent frames, so hints survive multi-access hops too.

use sirpent_wire::buf::{FrameBuf, PacketBuf, HEADER_ROOM};
use sirpent_wire::ethernet;
use sirpent_wire::{Error, Result};

/// Protocol tag values on point-to-point links.
mod proto {
    pub const SIRPENT: u8 = 1;
    pub const RATE_CONTROL: u8 = 2;
    pub const IPISH: u8 = 3;
    pub const CVC: u8 = 4;
}

/// An upstream rate-limit directive (§2.2): the congested router tells
/// the routers feeding one of its output queues to slow packets headed
/// for that queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateControlMsg {
    /// The congested router's id.
    pub congested_router: u32,
    /// The congested **output port** at that router; upstream routers
    /// classify traffic for this queue by peeking the next header
    /// segment's port field ("the upstream routers have access to the
    /// source route on each packet").
    pub congested_port: u8,
    /// The rate the feeder is allowed to send toward that queue, in
    /// bits/sec. Zero means "stop entirely".
    pub allowed_bps: u64,
    /// How many queue slots are currently occupied — lets sources and
    /// feeders estimate severity.
    pub queue_len: u16,
}

impl RateControlMsg {
    /// Serialized size.
    pub const LEN: usize = 4 + 1 + 8 + 2;

    fn to_bytes(self) -> [u8; Self::LEN] {
        let mut bytes = [0; Self::LEN];
        let mut out = Cursor::new(&mut bytes);
        out.put(&self.congested_router.to_be_bytes());
        out.put(&[self.congested_port]);
        out.put(&self.allowed_bps.to_be_bytes());
        out.put(&self.queue_len.to_be_bytes());
        bytes
    }

    fn parse(b: &[u8]) -> Result<RateControlMsg> {
        let (router, b) = b.split_first_chunk().ok_or(Error::Truncated)?;
        let (&congested_port, b) = b.split_first().ok_or(Error::Truncated)?;
        let (bps, b) = b.split_first_chunk().ok_or(Error::Truncated)?;
        let (queue_len, _) = b.split_first_chunk().ok_or(Error::Truncated)?;
        Ok(RateControlMsg {
            congested_router: u32::from_be_bytes(*router),
            congested_port,
            allowed_bps: u64::from_be_bytes(*bps),
            queue_len: u16::from_be_bytes(*queue_len),
        })
    }
}

/// A decoded link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFrame {
    /// A Sirpent packet with its feed-forward hint (sender's queue
    /// length behind this packet, saturating at 255).
    Sirpent {
        /// Queue occupancy behind this packet at the previous router.
        ff_hint: u8,
        /// The Sirpent packet bytes (header segments … trailer), shared
        /// so framing for transmit never copies the packet body.
        packet: PacketBuf,
    },
    /// Rate-control feedback.
    RateControl(RateControlMsg),
    /// An IP-like baseline datagram.
    Ipish(Vec<u8>),
    /// A CVC baseline message.
    Cvc(Vec<u8>),
}

impl LinkFrame {
    /// Link-header bytes in front of a Sirpent packet: the protocol tag
    /// and the feed-forward hint (behind the header, on an Ethernet).
    pub const SIRPENT_HEADER_LEN: usize = 2;

    /// Link-header bytes in front of an IP-like datagram or a CVC
    /// message: the protocol tag (behind the header, on an Ethernet).
    pub const TAG_LEN: usize = 1;

    /// Encode for a point-to-point link, consuming the frame. Only the
    /// link header is written: the Sirpent packet rides as the shared
    /// body, the Ipish/Cvc bytes *move* into the body, and a
    /// rate-control message is all header.
    pub fn into_p2p_frame(self) -> FrameBuf {
        self.compose(None)
    }

    /// Encode for an Ethernet, consuming the frame: the 14-byte header
    /// (`src`/`dst` are the stations, the ethertype follows the frame
    /// kind) goes in front of the point-to-point link header, so the
    /// rate-control/Sirpent distinction survives multi-access hops.
    pub fn into_ethernet_frame(self, src: ethernet::Address, dst: ethernet::Address) -> FrameBuf {
        let ethertype = match self {
            LinkFrame::Sirpent { .. } | LinkFrame::RateControl(_) => ethernet::EtherType::Sirpent,
            LinkFrame::Ipish(_) => ethernet::EtherType::Ipish,
            LinkFrame::Cvc(_) => ethernet::EtherType::Cvc,
        };
        self.compose(Some(ethernet::Repr {
            dst,
            src,
            ethertype,
        }))
    }

    /// Write this frame's link header, behind `ethernet`'s when there
    /// is one, and pair it with the body it fronts. The header is
    /// composed on the stack and held inline by the frame, so framing
    /// allocates nothing.
    fn compose(self, ethernet: Option<ethernet::Repr>) -> FrameBuf {
        let mut header = [0; HEADER_ROOM];
        let mut out = Cursor::new(&mut header);
        if let Some(h) = ethernet {
            let mut eth = [0; ethernet::HEADER_LEN];
            if h.emit(&mut eth).is_ok() {
                out.put(&eth);
            }
        }
        let body = match self {
            LinkFrame::Sirpent { ff_hint, packet } => {
                out.put(&[proto::SIRPENT, ff_hint]);
                packet
            }
            LinkFrame::RateControl(m) => {
                out.put(&[proto::RATE_CONTROL]);
                out.put(&m.to_bytes());
                PacketBuf::new()
            }
            LinkFrame::Ipish(d) => {
                out.put(&[proto::IPISH]);
                PacketBuf::from_vec(d)
            }
            LinkFrame::Cvc(d) => {
                out.put(&[proto::CVC]);
                PacketBuf::from_vec(d)
            }
        };
        let len = out.at;
        FrameBuf::new(header.get(..len).unwrap_or_default(), body)
    }

    /// Decode from a point-to-point frame. The Sirpent arm is zero-copy:
    /// the returned packet shares the frame's body store, whether the
    /// frame was composed (header + body) or arrived flat. The Ipish/Cvc
    /// arms copy their owned payload exactly once (they are mutated in
    /// place by the receiving router), never the whole frame.
    pub fn from_p2p_frame(f: &FrameBuf) -> Result<LinkFrame> {
        LinkFrame::decode(f, 0)
    }

    /// Decode an Ethernet frame; returns the header and the link frame.
    /// Copies exactly what [`Self::from_p2p_frame`] does.
    pub fn from_ethernet_frame(f: &FrameBuf) -> Result<(ethernet::Repr, LinkFrame)> {
        let hdr = {
            let p = f.prefix(ethernet::HEADER_LEN).ok_or(Error::Truncated)?;
            ethernet::Repr::parse(&p)?
        };
        Ok((hdr, LinkFrame::decode(f, ethernet::HEADER_LEN)?))
    }

    /// Decode the link header starting `at` bytes into `f`.
    fn decode(f: &FrameBuf, at: usize) -> Result<LinkFrame> {
        let payload = |n| f.strip_header(at + n).ok_or(Error::Truncated);
        match f.byte(at).ok_or(Error::Truncated)? {
            proto::SIRPENT => Ok(LinkFrame::Sirpent {
                ff_hint: f.byte(at + 1).ok_or(Error::Truncated)?,
                packet: payload(Self::SIRPENT_HEADER_LEN)?,
            }),
            proto::RATE_CONTROL => {
                let p = f
                    .prefix(at + 1 + RateControlMsg::LEN)
                    .ok_or(Error::Truncated)?;
                let msg = p.get(at + 1..).ok_or(Error::Truncated)?;
                Ok(LinkFrame::RateControl(RateControlMsg::parse(msg)?))
            }
            proto::IPISH => Ok(LinkFrame::Ipish(payload(Self::TAG_LEN)?.to_vec())),
            proto::CVC => Ok(LinkFrame::Cvc(payload(Self::TAG_LEN)?.to_vec())),
            _ => Err(Error::Malformed),
        }
    }
}

/// Runs of bytes written one after another into a fixed buffer. A run
/// that does not fit is dropped; every caller sizes the buffer for all
/// of its runs.
struct Cursor<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a mut [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn put(&mut self, bytes: &[u8]) {
        let end = self.at + bytes.len();
        if let Some(room) = self.buf.get_mut(self.at..end) {
            room.copy_from_slice(bytes);
            self.at = end;
        }
    }
}

/// Outcome of decoding a received frame against a port's link kind —
/// the shared front half of every node's parse stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortDecode {
    /// A frame addressed to this node, with the reversed Ethernet
    /// header (for return-hop construction) when the port is an
    /// Ethernet.
    Frame(LinkFrame, Option<ethernet::Repr>),
    /// A valid Ethernet frame for a different station: a multi-access
    /// link delivers to everyone, and stations filter silently.
    NotForUs,
}

/// Decode a received frame according to the port's link kind, applying
/// the Ethernet destination filter. Decode errors bubble up so the
/// caller can account a parse-stage drop.
pub fn decode_port_frame(kind: &crate::viper::PortKind, payload: &FrameBuf) -> Result<PortDecode> {
    match kind {
        crate::viper::PortKind::PointToPoint => {
            Ok(PortDecode::Frame(LinkFrame::from_p2p_frame(payload)?, None))
        }
        crate::viper::PortKind::Ethernet { mac } => {
            let (hdr, f) = LinkFrame::from_ethernet_frame(payload)?;
            if hdr.dst != *mac && !hdr.dst.is_broadcast() {
                return Ok(PortDecode::NotForUs);
            }
            Ok(PortDecode::Frame(f, Some(hdr.reversed())))
        }
    }
}

/// The flat-`Vec` reference encoder the frame codec is tested against:
/// one contiguous buffer per frame, every byte copied.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn to_p2p_bytes(f: &LinkFrame) -> Vec<u8> {
        let mut v = Vec::new();
        match f {
            LinkFrame::Sirpent { ff_hint, packet } => {
                v.push(proto::SIRPENT);
                v.push(*ff_hint);
                v.extend_from_slice(packet.as_slice());
            }
            LinkFrame::RateControl(m) => {
                v.push(proto::RATE_CONTROL);
                v.extend_from_slice(&m.to_bytes());
            }
            LinkFrame::Ipish(d) => {
                v.push(proto::IPISH);
                v.extend_from_slice(d);
            }
            LinkFrame::Cvc(d) => {
                v.push(proto::CVC);
                v.extend_from_slice(d);
            }
        }
        v
    }

    pub fn to_ethernet_bytes(
        f: &LinkFrame,
        src: ethernet::Address,
        dst: ethernet::Address,
    ) -> Vec<u8> {
        let ethertype = match f {
            LinkFrame::Sirpent { .. } | LinkFrame::RateControl(_) => ethernet::EtherType::Sirpent,
            LinkFrame::Ipish(_) => ethernet::EtherType::Ipish,
            LinkFrame::Cvc(_) => ethernet::EtherType::Cvc,
        };
        let mut v = ethernet::Repr {
            dst,
            src,
            ethertype,
        }
        .to_bytes();
        v.extend_from_slice(&to_p2p_bytes(f));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(kind: u8, ff_hint: u8, rc: (u32, u8, u64, u16), data: Vec<u8>) -> LinkFrame {
        match kind {
            0 => LinkFrame::Sirpent {
                ff_hint,
                packet: PacketBuf::from_vec(data),
            },
            1 => LinkFrame::RateControl(RateControlMsg {
                congested_router: rc.0,
                congested_port: rc.1,
                allowed_bps: rc.2,
                queue_len: rc.3,
            }),
            2 => LinkFrame::Ipish(data),
            _ => LinkFrame::Cvc(data),
        }
    }

    /// The packet of a Sirpent frame.
    fn packet_of(f: &LinkFrame) -> Option<&PacketBuf> {
        match f {
            LinkFrame::Sirpent { packet, .. } => Some(packet),
            _ => None,
        }
    }

    proptest! {
        #[test]
        fn frame_codec_matches_flat_oracle(kind in 0u8..4,
                                           ff_hint in any::<u8>(),
                                           rc in (any::<u32>(), any::<u8>(), any::<u64>(), any::<u16>()),
                                           data in proptest::collection::vec(any::<u8>(), 0..200),
                                           macs in (0u32..1000, 0u32..1000)) {
            let f = frame(kind, ff_hint, rc, data);
            let src = ethernet::Address::from_index(macs.0);
            let dst = ethernet::Address::from_index(macs.1);

            // Point-to-point: same bytes as the flat encoder, and both the
            // composed and the flattened form decode back to the frame.
            let flat = oracle::to_p2p_bytes(&f);
            let composed = f.clone().into_p2p_frame();
            prop_assert_eq!(composed.to_vec(), flat.clone());
            let flat = FrameBuf::from(flat);
            let back = LinkFrame::from_p2p_frame(&composed).unwrap();
            let back_flat = LinkFrame::from_p2p_frame(&flat).unwrap();
            prop_assert_eq!(&back, &f);
            prop_assert_eq!(&back_flat, &f);
            if let Some(orig) = packet_of(&f) {
                // Neither direction copies a Sirpent packet.
                prop_assert!(composed.body().shares_store_with(orig));
                prop_assert!(packet_of(&back).unwrap().shares_store_with(orig));
                prop_assert!(packet_of(&back_flat).unwrap().shares_store_with(flat.body()));
            }

            // Ethernet: likewise, behind the 14-byte header.
            let flat = oracle::to_ethernet_bytes(&f, src, dst);
            let composed = f.clone().into_ethernet_frame(src, dst);
            prop_assert_eq!(composed.to_vec(), flat.clone());
            let flat = FrameBuf::from(flat);
            let (hdr, back) = LinkFrame::from_ethernet_frame(&composed).unwrap();
            let (hdr_flat, back_flat) = LinkFrame::from_ethernet_frame(&flat).unwrap();
            prop_assert_eq!((hdr.src, hdr.dst), (src, dst));
            prop_assert_eq!(hdr_flat, hdr);
            prop_assert_eq!(&back, &f);
            prop_assert_eq!(&back_flat, &f);
            if let Some(orig) = packet_of(&f) {
                prop_assert_eq!(hdr.ethertype, ethernet::EtherType::Sirpent);
                prop_assert!(composed.body().shares_store_with(orig));
                prop_assert!(packet_of(&back).unwrap().shares_store_with(orig));
                prop_assert!(packet_of(&back_flat).unwrap().shares_store_with(flat.body()));
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64),
                                       split in 0usize..64) {
            // Flat, and split at an arbitrary header/body boundary.
            let cut = split.min(bytes.len());
            let mixed = FrameBuf::new(&bytes[..cut], PacketBuf::from(&bytes[cut..]));
            for f in [FrameBuf::from(bytes.clone()), mixed] {
                let p2p = LinkFrame::from_p2p_frame(&f);
                let eth = LinkFrame::from_ethernet_frame(&f);
                // Whatever does decode re-encodes to a prefix-equal frame
                // (rate-control tolerates trailing bytes).
                if let Ok(lf) = p2p {
                    let again = lf.into_p2p_frame().to_vec();
                    prop_assert_eq!(&again[..], &bytes[..again.len()]);
                }
                if let Ok((hdr, lf)) = eth {
                    let again = lf.into_ethernet_frame(hdr.src, hdr.dst).to_vec();
                    prop_assert_eq!(&again[14..], &bytes[14..again.len()]);
                }
            }
        }
    }

    #[test]
    fn p2p_frame_roundtrip_is_zero_copy() {
        let packet = PacketBuf::from(vec![7u8; 64]);
        let f = LinkFrame::Sirpent {
            ff_hint: 3,
            packet: packet.clone(),
        };
        let frame = f.clone().into_p2p_frame();
        // Composing copies only the 2-byte link header.
        assert_eq!(frame.header(), &[proto::SIRPENT, 3]);
        assert!(frame.body().shares_store_with(&packet));
        assert_eq!(frame.to_vec(), oracle::to_p2p_bytes(&f));
        // Parsing shares the same store too: no copy on receive.
        let back = LinkFrame::from_p2p_frame(&frame).unwrap();
        assert_eq!(back, f);
        assert!(packet_of(&back).unwrap().shares_store_with(&packet));
    }

    #[test]
    fn ethernet_frame_roundtrip_is_zero_copy() {
        let packet = PacketBuf::from(vec![5u8; 80]);
        let f = LinkFrame::Sirpent {
            ff_hint: 9,
            packet: packet.clone(),
        };
        let src = ethernet::Address::from_index(3);
        let dst = ethernet::Address::from_index(4);
        let frame = f.clone().into_ethernet_frame(src, dst);
        assert_eq!(frame.header().len(), ethernet::HEADER_LEN + 2);
        assert!(frame.body().shares_store_with(&packet));
        assert_eq!(frame.to_vec(), oracle::to_ethernet_bytes(&f, src, dst));
        let (hdr, back) = LinkFrame::from_ethernet_frame(&frame).unwrap();
        assert_eq!((hdr.src, hdr.dst), (src, dst));
        assert!(packet_of(&back).unwrap().shares_store_with(&packet));
    }

    #[test]
    fn non_sirpent_frames_roundtrip_via_frame_path() {
        let rc = RateControlMsg {
            congested_router: 1,
            congested_port: 2,
            allowed_bps: 3,
            queue_len: 4,
        };
        // A rate-control frame is all link header; Ipish/Cvc bytes move
        // into the body behind a 1-byte tag.
        let frame = LinkFrame::RateControl(rc).into_p2p_frame();
        assert_eq!(frame.header().len(), 1 + RateControlMsg::LEN);
        assert!(frame.body().is_empty());
        assert_eq!(
            LinkFrame::from_p2p_frame(&frame).unwrap(),
            LinkFrame::RateControl(rc)
        );
        for f in [LinkFrame::Ipish(vec![4, 5]), LinkFrame::Cvc(vec![6])] {
            let frame = f.clone().into_p2p_frame();
            assert_eq!(frame.header().len(), 1);
            assert_eq!(LinkFrame::from_p2p_frame(&frame).unwrap(), f);
        }
    }

    #[test]
    fn garbage_rejected() {
        let p2p = |b: &[u8]| LinkFrame::from_p2p_frame(&FrameBuf::from(b.to_vec()));
        assert_eq!(p2p(&[]), Err(Error::Truncated));
        assert_eq!(p2p(&[99, 1, 2]), Err(Error::Malformed));
        assert_eq!(p2p(&[proto::RATE_CONTROL, 1]), Err(Error::Truncated));
        assert_eq!(p2p(&[proto::SIRPENT]), Err(Error::Truncated));
        assert!(LinkFrame::from_p2p_frame(&FrameBuf::default()).is_err());
        assert!(LinkFrame::from_ethernet_frame(&FrameBuf::from(vec![0u8; 14])).is_err());
    }
}
