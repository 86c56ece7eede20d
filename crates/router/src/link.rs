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
//!
//! Every arm frames the same way: a link header of a few bytes — the
//! tag, then the feed-forward hint, the rate-control message, the IP
//! header or a CVC message's fixed part — held inline by the
//! [`FrameBuf`], in front of a shared [`PacketBuf`] body: the Sirpent
//! packet, the datagram's payload or the CVC data. What the sender
//! composes is exactly what the receiver strips, so neither side copies
//! a body. The one exception is a header past
//! [`HEADER_ROOM`](sirpent_wire::buf::HEADER_ROOM): an IP
//! header behind an Ethernet header is 35 B, and [`FrameBuf::new`]
//! copies the body once to carry the last 5.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::cvc::{self, Message};
use sirpent_wire::ethernet;
use sirpent_wire::ipish::{self, Datagram};
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
    /// An IP-like baseline datagram (a runt too, unverified: the
    /// receiving router's checks decide what it is worth).
    Ipish(Datagram),
    /// A CVC baseline message — or, when the bytes behind the tag do not
    /// parse as one, those bytes: a node that does not speak CVC treats
    /// both alike, and a CVC switch counts the second as a bad frame.
    Cvc(core::result::Result<Message, PacketBuf>),
}

impl LinkFrame {
    /// Link-header bytes in front of a Sirpent packet: the protocol tag
    /// and the feed-forward hint (behind the header, on an Ethernet).
    pub const SIRPENT_HEADER_LEN: usize = 2;

    /// Link-header bytes in front of an IP-like datagram or a CVC
    /// message: the protocol tag (behind the header, on an Ethernet).
    pub const TAG_LEN: usize = 1;

    /// Encode for a point-to-point link, consuming the frame. Only the
    /// link header is written: the Sirpent packet, the datagram's
    /// payload and a CVC message's data ride as the shared body, and a
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
    /// allocates nothing — but for the 5 bytes an IP header behind an
    /// Ethernet header runs past
    /// [`HEADER_ROOM`](sirpent_wire::buf::HEADER_ROOM).
    fn compose(self, ethernet: Option<ethernet::Repr>) -> FrameBuf {
        let mut header = [0; ethernet::HEADER_LEN + Self::TAG_LEN + ipish::HEADER_LEN];
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
                out.put(d.header());
                d.payload
            }
            LinkFrame::Cvc(m) => {
                out.put(&[proto::CVC]);
                let mut fixed = [0; cvc::MAX_HEADER_LEN];
                let n = m.as_ref().map_or(Ok(0), |m| m.emit_header(&mut fixed));
                out.put(fixed.get(..n.unwrap_or_default()).unwrap_or_default());
                match m {
                    Ok(Message::Data { payload, .. }) | Err(payload) => payload,
                    Ok(_) => PacketBuf::new(),
                }
            }
        };
        let len = out.at;
        FrameBuf::new(header.get(..len).unwrap_or_default(), body)
    }

    /// Decode from a point-to-point frame. Every arm is zero-copy: the
    /// returned packet, datagram payload or CVC data shares the frame's
    /// body store, whether the frame was composed (link header + body)
    /// or arrived flat; only the link header's few bytes are copied.
    pub fn from_p2p_frame(f: &FrameBuf) -> Result<LinkFrame> {
        LinkFrame::decode(f, 0)
    }

    /// Decode an Ethernet frame; returns the header and the link frame.
    /// Copies what [`Self::from_p2p_frame`] does, and for a datagram the
    /// IP header too, which runs past the frame's inline room.
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
            tag @ (proto::IPISH | proto::CVC) => {
                // Split where the sender did: behind the IP header (all a
                // runt has of one) or the message's fixed part.
                let start = at + Self::TAG_LEN;
                let fixed = match tag {
                    proto::IPISH => ipish::HEADER_LEN,
                    _ => f.byte(start).map_or(0, Message::header_len),
                };
                let end = f.len().min(start + fixed);
                let head = f.prefix(end).ok_or(Error::Truncated)?;
                let (head, body) = (head.get(start..).unwrap_or_default(), payload(end - at)?);
                Ok(match tag {
                    proto::IPISH => LinkFrame::Ipish(Datagram::from_parts(head, body)),
                    _ => LinkFrame::Cvc(
                        Message::parse(head, body)
                            .map_err(|_| payload(Self::TAG_LEN).unwrap_or_default()),
                    ),
                })
            }
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
                v.extend_from_slice(d.header());
                v.extend_from_slice(&d.payload);
            }
            LinkFrame::Cvc(m) => {
                v.push(proto::CVC);
                v.extend_from_slice(&cvc_bytes(m));
            }
        }
        v
    }

    /// A CVC message's bytes, written field by field.
    fn cvc_bytes(m: &core::result::Result<Message, PacketBuf>) -> Vec<u8> {
        let vci = |kind: u8, vci: u16| [&[kind][..], &vci.to_be_bytes()].concat();
        match m {
            Ok(Message::Setup {
                vci: v,
                dest,
                reserve,
            }) => [
                vci(1, *v),
                dest.to_be_bytes().to_vec(),
                reserve.to_be_bytes().to_vec(),
            ]
            .concat(),
            Ok(Message::Accept { vci: v }) => vci(2, *v),
            Ok(Message::Reject { vci: v, reason }) => [vci(3, *v), vec![*reason]].concat(),
            Ok(Message::Teardown { vci: v }) => vci(4, *v),
            Ok(Message::Data { vci: v, payload }) => [vci(5, *v), payload.to_vec()].concat(),
            Err(bytes) => bytes.to_vec(),
        }
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

    /// A frame of `kind`. Ipish frames carry `data` behind a header, or
    /// are runts of its first bytes; CVC frames carry one message of
    /// each type, `data` as its payload, or `data` that is no message.
    fn frame(kind: u8, ff_hint: u8, rc: (u32, u8, u64, u16), data: Vec<u8>) -> LinkFrame {
        let (sub, vci) = (ff_hint % 6, u16::from(ff_hint) << 3);
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
            2 if sub == 0 => {
                let runt = data.get(..data.len().min(ipish::HEADER_LEN - 1));
                LinkFrame::Ipish(Datagram::from_parts(
                    runt.unwrap_or_default(),
                    PacketBuf::new(),
                ))
            }
            2 => {
                let repr = ipish::Repr {
                    total_len: rc.3,
                    ident: vci,
                    ttl: rc.1,
                    protocol: ff_hint,
                    src: ipish::Address(rc.0),
                    ..Default::default()
                };
                LinkFrame::Ipish(Datagram::new(&repr, PacketBuf::from_vec(data)))
            }
            _ => LinkFrame::Cvc(match sub {
                0 => Ok(Message::Setup {
                    vci,
                    dest: rc.0,
                    reserve: rc.2 as u32,
                }),
                1 => Ok(Message::Accept { vci }),
                2 => Ok(Message::Reject { vci, reason: rc.1 }),
                3 => Ok(Message::Teardown { vci }),
                4 => Ok(Message::Data {
                    vci,
                    payload: PacketBuf::from_vec(data),
                }),
                // A message type no CVC node knows.
                _ => Err(PacketBuf::from_vec([&[99][..], &data].concat())),
            }),
        }
    }

    /// The body a frame shares with the link frame's: a Sirpent packet,
    /// a datagram's payload or CVC data.
    fn body_of(f: &LinkFrame) -> Option<&PacketBuf> {
        match f {
            LinkFrame::Sirpent { packet, .. } => Some(packet),
            LinkFrame::Ipish(d) if !d.payload.is_empty() => Some(&d.payload),
            LinkFrame::Cvc(Ok(Message::Data { payload, .. })) if !payload.is_empty() => {
                Some(payload)
            }
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
            if let Some(orig) = body_of(&f) {
                // Neither direction copies a body.
                prop_assert!(composed.body().shares_store_with(orig));
                prop_assert!(body_of(&back).unwrap().shares_store_with(orig));
                prop_assert!(body_of(&back_flat).unwrap().shares_store_with(flat.body()));
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
            if let Some(orig) = body_of(&f) {
                // Past the inline room, an IP header behind an Ethernet
                // header takes the body with it into one copy.
                if !matches!(f, LinkFrame::Ipish(_)) {
                    prop_assert!(composed.body().shares_store_with(orig));
                    prop_assert!(body_of(&back).unwrap().shares_store_with(orig));
                }
                prop_assert!(body_of(&back).unwrap().shares_store_with(composed.body()));
                prop_assert!(body_of(&back_flat).unwrap().shares_store_with(flat.body()));
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
        assert!(body_of(&back).unwrap().shares_store_with(&packet));
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
        assert!(body_of(&back).unwrap().shares_store_with(&packet));
    }

    #[test]
    fn non_sirpent_frames_roundtrip_via_frame_path() {
        let rc = RateControlMsg {
            congested_router: 1,
            congested_port: 2,
            allowed_bps: 3,
            queue_len: 4,
        };
        // A rate-control frame is all link header; so is a CVC message
        // without data, behind its 1-byte tag.
        let frame = LinkFrame::RateControl(rc).into_p2p_frame();
        assert_eq!(frame.header().len(), 1 + RateControlMsg::LEN);
        assert!(frame.body().is_empty());
        assert_eq!(
            LinkFrame::from_p2p_frame(&frame).unwrap(),
            LinkFrame::RateControl(rc)
        );
        let f = LinkFrame::Cvc(Ok(Message::Teardown { vci: 6 }));
        let frame = f.clone().into_p2p_frame();
        assert_eq!(frame.header().len(), 1 + cvc::DATA_HEADER_LEN);
        assert!(frame.body().is_empty());
        assert_eq!(LinkFrame::from_p2p_frame(&frame).unwrap(), f);
        // A datagram's IP header joins the tag in the link header.
        let f = LinkFrame::Ipish(Datagram::new(
            &ipish::Repr::default(),
            PacketBuf::from(&[4, 5]),
        ));
        let frame = f.clone().into_p2p_frame();
        assert_eq!(frame.header().len(), 1 + ipish::HEADER_LEN);
        assert_eq!(LinkFrame::from_p2p_frame(&frame).unwrap(), f);
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
