//! Zero-copy packet buffers for the per-hop forwarding path.
//!
//! The paper's cost model is that a VIPER router does **constant** work
//! per hop: strip the leading header segment, pick an output port, append
//! a reversed segment to the trailer (§2). A `Vec<u8>` packet makes two
//! of those three steps O(packet length): stripping the front memmoves
//! the whole buffer, and every fan-out/retransmit clones it. This module
//! provides the buffer types that restore the paper's cost model:
//!
//! * [`PacketBuf`] — a shared (`Arc`-backed) byte buffer with a `head`
//!   offset cursor and a `tail` watermark. Stripping a header segment
//!   *advances* `head` (O(1)); truncation *lowers* `tail` (O(1));
//!   trailer appends extend in place while the buffer is uniquely owned
//!   (the steady state between hops) and copy-on-write otherwise.
//!   Cloning is an `Arc` bump — multicast fan-out, retry queues and
//!   transmit all share one allocation. A buffer that never held a byte
//!   has no store at all, so an empty one costs nothing.
//! * [`SegmentView`] — the leading VIPER segment, decoded once, whose
//!   variable fields (`portToken`, `portInfo`) are **borrowed** ranges
//!   into the shared store, not per-hop `Vec` copies. The view holds its
//!   own `Arc` so it stays valid even after the packet is advanced past
//!   it or cow-copied elsewhere.
//! * [`FrameBuf`] — a link frame as a small inline header plus a shared
//!   [`PacketBuf`] body, so prepending the link header on transmit does
//!   not copy the packet, and the receiver can take the body back out
//!   zero-copy. Every frame kind uses it so: a Sirpent packet, an IP
//!   datagram's payload (its 20-byte header joins the link header) and
//!   a CVC message's data are all bodies, and nothing on the wire is a
//!   `Vec`.
//!
//! ## Ownership and offset semantics
//!
//! A `PacketBuf` is a window `store[head..tail]` into an immutable-once-
//! shared `Arc<Vec<u8>>`. The bytes *before* `head` are the header
//! segments already stripped by upstream routers — they are dead weight
//! carried until the next copy-on-write, mirroring how the real packet
//! shrinks at the front while the trailer grows at the back (total bytes
//! conserved). Mutation rules:
//!
//! * `advance`/`truncate` touch only the offsets — always O(1), never
//!   observable by other holders.
//! * `append` mutates the store **only** when this handle is the unique
//!   owner *and* `tail` is the true end of the store; otherwise it
//!   copies the live window into a fresh store (with headroom) first.
//!   Holders of the old store are unaffected; the appender's `head`
//!   resets to 0.
//!
//! In the steady per-hop state (one router owns the packet between
//! arrival and transmit) appends are in-place and the whole
//! strip→append→forward cycle does O(segment) work, independent of
//! payload length.

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

use std::sync::Arc;

use crate::viper::{decode, AltBranch, Decoded, Flags, Priority, SegmentRepr};
use crate::Result;

/// Headroom added when a copy-on-write happens, so the fresh store can
/// absorb the next few return-hop appends without reallocating.
const COW_HEADROOM: usize = 64;

/// A shared, cheaply-cloneable packet buffer with O(1) front strip and
/// tail truncation. See the [module docs](self) for semantics.
///
/// The offsets are `u32`, so a window holds at most `u32::MAX` bytes
/// (an offset past that saturates): 16 bytes a handle, which keeps a
/// [`FrameBuf`] with its link header inline at 48.
#[derive(Clone, Default)]
pub struct PacketBuf {
    /// `None` until the first byte arrives.
    store: Option<Arc<Vec<u8>>>,
    head: u32,
    tail: u32,
}

/// A byte offset as a window stores it.
fn offset(at: usize) -> u32 {
    u32::try_from(at).unwrap_or(u32::MAX)
}

impl PacketBuf {
    /// An empty buffer. Allocates nothing.
    pub fn new() -> PacketBuf {
        PacketBuf::default()
    }

    /// Take ownership of `bytes` as the live window.
    pub fn from_vec(bytes: Vec<u8>) -> PacketBuf {
        let tail = offset(bytes.len());
        PacketBuf {
            store: Some(Arc::new(bytes)),
            head: 0,
            tail,
        }
    }

    /// The live window `store[head..tail]`.
    pub fn as_slice(&self) -> &[u8] {
        match &self.store {
            #[expect(
                clippy::indexing_slicing,
                reason = "type invariant: every constructor and mutator keeps head <= tail <= store.len()"
            )]
            Some(store) => &store[self.head as usize..self.tail as usize],
            None => &[],
        }
    }

    /// Length of the live window.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the live window is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Strip `n` bytes off the front by advancing the head offset. O(1).
    /// An `n` beyond the window empties it, as a `keep` beyond the window
    /// is a no-op for [`truncate`](Self::truncate): callers advance by a
    /// parsed segment length already validated against the window.
    ///
    /// # Panics
    /// In debug builds only, if `n` exceeds the live window.
    pub fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len(), "advance past end of PacketBuf");
        self.head += n.min(self.len()) as u32;
    }

    /// Keep only the first `keep` bytes of the live window by lowering
    /// the tail watermark. O(1). A `keep` beyond the window is a no-op.
    pub fn truncate(&mut self, keep: usize) {
        if keep < self.len() {
            self.tail = self.head + keep as u32;
        }
    }

    /// Append `bytes` after the live window. In-place when uniquely
    /// owned, copy-on-write otherwise.
    pub fn append(&mut self, bytes: &[u8]) {
        self.append_with(bytes.len(), |dst| dst.copy_from_slice(bytes));
    }

    /// Append `n` bytes produced by `fill` (called on a zeroed window of
    /// exactly `n` bytes). Lets emit-style writers serialize directly
    /// into the store without a temporary `Vec`.
    pub fn append_with(&mut self, n: usize, fill: impl FnOnce(&mut [u8])) {
        match self.store.as_mut().and_then(Arc::get_mut) {
            Some(v) => {
                // Unique owner: drop anything beyond our tail (no other
                // holder can see it) and extend in place.
                let tail = self.tail as usize;
                v.truncate(tail);
                v.resize(tail + n, 0);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "store was just resized to tail + n, so tail is in range"
                )]
                fill(&mut v[tail..]);
                self.tail = offset(tail + n);
            }
            None => {
                // Shared: copy the live window into a fresh store with
                // headroom, then extend that.
                let live = self.len();
                let mut v = Vec::with_capacity(live + n + COW_HEADROOM);
                v.extend_from_slice(self.as_slice());
                v.resize(live + n, 0);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "fresh store was just resized to live + n, so live is in range"
                )]
                fill(&mut v[live..]);
                self.store = Some(Arc::new(v));
                self.head = 0;
                self.tail = offset(live + n);
            }
        }
    }

    /// Copy the live window out as an owned `Vec` (edge/interop shim).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// How many bytes have been stripped off the front of this store
    /// (diagnostic; the paper's "header shrinks, trailer grows").
    pub fn head_offset(&self) -> usize {
        self.head as usize
    }

    /// Whether this handle is the unique owner of the store (appends
    /// will be in-place). Exposed for tests asserting the steady-state
    /// forwarding path never copies.
    pub fn is_unique(&self) -> bool {
        self.store
            .as_ref()
            .is_none_or(|s| Arc::strong_count(s) == 1)
    }

    /// Whether `self` and `other` share one underlying store (fan-out
    /// copies should). Exposed for tests.
    pub fn shares_store_with(&self, other: &PacketBuf) -> bool {
        match (&self.store, &other.store) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(bytes: Vec<u8>) -> PacketBuf {
        PacketBuf::from_vec(bytes)
    }
}

impl From<&[u8]> for PacketBuf {
    fn from(bytes: &[u8]) -> PacketBuf {
        PacketBuf::from_vec(bytes.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for PacketBuf {
    fn from(bytes: &[u8; N]) -> PacketBuf {
        PacketBuf::from_vec(bytes.to_vec())
    }
}

impl core::fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketBuf")
            .field("len", &self.len())
            .field("head", &self.head)
            .field("bytes", &self.as_slice())
            .finish()
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl std::ops::Deref for PacketBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A parsed leading VIPER header segment whose variable fields are
/// borrowed views into the shared store — no per-hop allocation.
///
/// The view holds its own `Arc` on the store plus absolute offsets, so
/// it remains valid after the originating [`PacketBuf`] advances past
/// the segment (the normal strip flow) or cow-copies elsewhere.
#[derive(Clone)]
pub struct SegmentView {
    /// Never `None`: a segment decodes only from a non-empty buffer.
    store: Option<Arc<Vec<u8>>>,
    /// Where the segment starts in `store`.
    start: usize,
    seg: Decoded,
}

impl SegmentView {
    /// Parse the segment at the front of `buf`'s live window.
    pub fn parse(buf: &PacketBuf) -> Result<SegmentView> {
        let seg = decode(buf.as_slice())?;
        Ok(SegmentView {
            store: buf.store.clone(),
            start: buf.head_offset(),
            seg,
        })
    }

    /// The output-port identifier.
    pub fn port(&self) -> u8 {
        self.seg.port
    }

    /// The segment flags.
    pub fn flags(&self) -> Flags {
        self.seg.flags
    }

    /// The segment priority.
    pub fn priority(&self) -> Priority {
        self.seg.priority
    }

    /// The alternate (failover) branch, when the segment carries one.
    pub fn alt(&self) -> Option<AltBranch> {
        self.seg.alt
    }

    /// Encoded length of the segment (what [`PacketBuf::advance`] should
    /// strip). Includes the alternate-branch suffix when present.
    pub fn encoded_len(&self) -> usize {
        self.seg.len
    }

    /// The segment's bytes onward in the shared store.
    fn bytes(&self) -> &[u8] {
        self.store
            .as_deref()
            .and_then(|s| s.get(self.start..))
            .unwrap_or_default()
    }

    /// The `portToken` bytes, borrowed from the shared store.
    pub fn port_token(&self) -> &[u8] {
        self.seg.port_token(self.bytes())
    }

    /// The network-specific `portInfo` bytes, borrowed from the shared
    /// store.
    pub fn port_info(&self) -> &[u8] {
        self.seg.port_info(self.bytes())
    }

    /// Materialize an owned [`SegmentRepr`] (edge paths that need
    /// ownership: building return hops with substituted fields, splice
    /// re-encoding, logging).
    pub fn to_repr(&self) -> SegmentRepr {
        self.seg.to_repr(self.bytes())
    }
}

impl core::fmt::Debug for SegmentView {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SegmentView")
            .field("port", &self.seg.port)
            .field("flags", &self.seg.flags)
            .field("priority", &self.seg.priority)
            .field("token_len", &self.seg.token.len())
            .field("info_len", &self.seg.info.len())
            .finish()
    }
}

/// The link-header bytes a [`FrameBuf`] holds inline: a 14-byte
/// Ethernet header in front of a 16-byte rate-control header. The one
/// longer header composed, an IP datagram's on an Ethernet (14 + 1 +
/// 20 = 35 bytes), takes [`FrameBuf::new`]'s copying path rather than
/// growing every frame.
pub const HEADER_ROOM: usize = 30;

/// A link-layer frame: a small header (link tag, Ethernet header, …)
/// held inline in front of a shared packet body.
///
/// Prepending a link header onto a shared contiguous buffer cannot be
/// zero-copy, so the frame keeps the header (a few bytes, copied per
/// frame) separate from the body (shared via [`PacketBuf`]). The header
/// lives in the frame itself, so composing or cloning a `FrameBuf` —
/// which the simulator does once per receiving tap, and the router does
/// per fan-out copy — allocates nothing.
#[derive(Clone, Default)]
pub struct FrameBuf {
    header: [u8; HEADER_ROOM],
    header_len: u8,
    body: PacketBuf,
}

impl FrameBuf {
    /// A frame with `header` prepended to `body`. A header longer than
    /// [`HEADER_ROOM`] keeps its first `HEADER_ROOM` bytes inline and
    /// moves the rest in front of the body, which copies the body; the
    /// frame's bytes are the same either way.
    pub fn new(header: &[u8], body: PacketBuf) -> FrameBuf {
        let split = header.len().min(HEADER_ROOM);
        let (inline, overflow) = (
            header.get(..split).unwrap_or_default(),
            header.get(split..).unwrap_or_default(),
        );
        let body = if overflow.is_empty() {
            body
        } else {
            let mut v = Vec::with_capacity(overflow.len() + body.len());
            v.extend_from_slice(overflow);
            v.extend_from_slice(body.as_slice());
            PacketBuf::from_vec(v)
        };
        let mut frame = FrameBuf {
            header: [0; HEADER_ROOM],
            header_len: split as u8,
            body,
        };
        if let Some(room) = frame.header.get_mut(..split) {
            room.copy_from_slice(inline);
        }
        frame
    }

    /// Total on-the-wire length.
    pub fn len(&self) -> usize {
        self.header().len() + self.body.len()
    }

    /// Whether the frame has no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The header part (may be empty for frames built from a flat byte
    /// vector).
    pub fn header(&self) -> &[u8] {
        self.header
            .get(..usize::from(self.header_len))
            .unwrap_or_default()
    }

    /// The shared body part.
    pub fn body(&self) -> &PacketBuf {
        &self.body
    }

    /// Byte `i` of the frame (header and body concatenated).
    pub fn byte(&self, i: usize) -> Option<u8> {
        let header = self.header();
        match header.get(i) {
            Some(&b) => Some(b),
            None => self.body.as_slice().get(i - header.len()).copied(),
        }
    }

    /// The first `n` bytes as one contiguous slice, borrowing when the
    /// split allows it (it does whenever the frame was composed with the
    /// link header in `header`, or arrived as one flat buffer) and
    /// copying only in the mixed case. Link-header parsers use this.
    pub fn prefix(&self, n: usize) -> Option<std::borrow::Cow<'_, [u8]>> {
        use std::borrow::Cow;
        let header = self.header();
        if let Some(h) = header.get(..n) {
            Some(Cow::Borrowed(h))
        } else if header.is_empty() {
            self.body.as_slice().get(..n).map(Cow::Borrowed)
        } else {
            let rest = self.body.as_slice().get(..n - header.len())?;
            let mut v = Vec::with_capacity(n);
            v.extend_from_slice(header);
            v.extend_from_slice(rest);
            Some(Cow::Owned(v))
        }
    }

    /// The frame payload after the first `n` bytes, as a shared
    /// [`PacketBuf`]. Zero-copy when the link header/body split matches
    /// (`n == header.len()`) or the frame is one flat buffer; copies
    /// only in the mixed case.
    pub fn strip_header(&self, n: usize) -> Option<PacketBuf> {
        match n.checked_sub(self.header().len()) {
            Some(extra) => {
                if extra > self.body.len() {
                    return None;
                }
                let mut b = self.body.clone();
                b.advance(extra);
                Some(b)
            }
            None => {
                // Header longer than n: keep the header remainder plus
                // the body (rare — only link formats we don't compose).
                let keep = self.header().get(n..)?;
                let mut v = Vec::with_capacity(keep.len() + self.body.len());
                v.extend_from_slice(keep);
                v.extend_from_slice(self.body.as_slice());
                Some(PacketBuf::from_vec(v))
            }
        }
    }

    /// Flatten to one owned byte vector (edge/interop shim, and the
    /// fault-injection corrupt path).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(self.header());
        v.extend_from_slice(self.body.as_slice());
        v
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf::from(PacketBuf::from_vec(bytes))
    }
}

impl From<PacketBuf> for FrameBuf {
    fn from(body: PacketBuf) -> FrameBuf {
        FrameBuf {
            body,
            ..FrameBuf::default()
        }
    }
}

impl core::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrameBuf")
            .field("header_len", &self.header_len)
            .field("body_len", &self.body.len())
            .finish()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &FrameBuf) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let a = self.header().iter().chain(self.body.as_slice());
        let b = other.header().iter().chain(other.body.as_slice());
        a.eq(b)
    }
}

impl Eq for FrameBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_truncate_are_offset_only() {
        let mut b = PacketBuf::from_vec((0u8..32).collect());
        let peer = b.clone();
        b.advance(5);
        assert_eq!(b.as_slice(), &(5u8..32).collect::<Vec<_>>()[..]);
        b.truncate(10);
        assert_eq!(b.as_slice(), &(5u8..15).collect::<Vec<_>>()[..]);
        assert_eq!(b.head_offset(), 5);
        // The peer still sees the original window.
        assert_eq!(peer.as_slice(), &(0u8..32).collect::<Vec<_>>()[..]);
        assert!(b.shares_store_with(&peer), "offset ops never copy");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance past end of PacketBuf")]
    fn advance_past_the_window_panics_in_debug() {
        PacketBuf::from_vec(vec![1, 2, 3]).advance(4);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn advance_past_the_window_empties_it_in_release() {
        let mut b = PacketBuf::from_vec(vec![1, 2, 3]);
        b.advance(1);
        b.advance(9);
        assert!(b.is_empty());
        assert_eq!(b.head_offset(), 3, "head stops at the tail");
        b.append(&[7]);
        assert_eq!(b.as_slice(), &[7]);
    }

    #[test]
    fn append_in_place_when_unique() {
        let mut b = PacketBuf::from_vec(vec![1, 2, 3]);
        assert!(b.is_unique());
        b.append(&[4, 5]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.head_offset(), 0, "no cow happened");
    }

    #[test]
    fn append_cows_when_shared_and_preserves_peer() {
        let mut b = PacketBuf::from_vec(vec![1, 2, 3]);
        let peer = b.clone();
        b.advance(1);
        b.append(&[9]);
        assert_eq!(b.as_slice(), &[2, 3, 9]);
        assert_eq!(peer.as_slice(), &[1, 2, 3], "peer unaffected by cow");
        assert!(!b.shares_store_with(&peer));
        assert_eq!(b.head_offset(), 0, "cow rebases the window");
    }

    #[test]
    fn append_after_truncate_drops_hidden_tail() {
        let mut b = PacketBuf::from_vec(vec![1, 2, 3, 4]);
        b.truncate(2);
        b.append(&[7]);
        assert_eq!(b.as_slice(), &[1, 2, 7]);
    }

    #[test]
    fn framebuf_prefix_and_strip() {
        let body = PacketBuf::from_vec(vec![10, 11, 12]);
        let f = FrameBuf::new(&[1, 2], body);
        assert_eq!(f.len(), 5);
        assert_eq!(&*f.prefix(2).unwrap(), &[1, 2]);
        assert_eq!(&*f.prefix(4).unwrap(), &[1, 2, 10, 11]);
        assert!(f.prefix(6).is_none());
        // Header-aligned strip is zero-copy.
        let p = f.strip_header(2).unwrap();
        assert_eq!(p.as_slice(), &[10, 11, 12]);
        assert!(p.shares_store_with(f.body()));
        // Flat frames strip by advancing.
        let flat = FrameBuf::from(vec![1, 2, 10, 11, 12]);
        let p2 = flat.strip_header(2).unwrap();
        assert_eq!(p2.as_slice(), &[10, 11, 12]);
        assert!(p2.shares_store_with(flat.body()));
        assert_eq!(flat.to_vec(), f.to_vec());
        assert_eq!(flat, f);
    }

    /// A header past the inline room keeps its first `HEADER_ROOM`
    /// bytes inline and moves the rest in front of the body: the
    /// frame's bytes, and every accessor's answer, are the same.
    #[test]
    fn framebuf_header_past_the_inline_room_moves_into_the_body() {
        let header: Vec<u8> = (0..40).collect();
        let f = FrameBuf::new(&header, PacketBuf::from_vec(vec![100, 101]));
        assert_eq!(f.header(), &header[..HEADER_ROOM]);
        assert_eq!(f.len(), 42);
        assert_eq!(f.byte(35), Some(35));
        assert_eq!(&*f.prefix(41).unwrap(), &[&header[..], &[100]].concat()[..]);
        assert_eq!(f.strip_header(40).unwrap().as_slice(), &[100, 101]);
        assert_eq!(f, FrameBuf::from([&header[..], &[100, 101]].concat()));
    }

    #[test]
    fn segment_view_survives_advance_and_cow() {
        use crate::viper::SegmentRepr;
        let seg = SegmentRepr {
            port: 9,
            port_token: vec![0xAA; 16],
            port_info: vec![0x55; 14],
            ..Default::default()
        };
        let mut bytes = seg.to_bytes();
        bytes.extend_from_slice(b"payload");
        let mut buf = PacketBuf::from_vec(bytes);
        let view = SegmentView::parse(&buf).unwrap();
        assert_eq!(view.port(), 9);
        assert_eq!(view.port_token(), &[0xAA; 16][..]);
        assert_eq!(view.port_info(), &[0x55; 14][..]);
        buf.advance(view.encoded_len());
        assert_eq!(buf.as_slice(), b"payload");
        // Force a cow on the packet; the view still reads its store.
        let _held = buf.clone();
        buf.append(&[1, 2, 3]);
        assert_eq!(view.port_token(), &[0xAA; 16][..]);
        assert_eq!(view.to_repr(), seg);
    }
}
