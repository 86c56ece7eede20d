//! Concatenated-virtual-circuit (X.75-style) framing — the second
//! baseline the paper argues against (§1): "The CVC approach requires a
//! circuit setup between endpoints before communication can take place,
//! introducing a full roundtrip delay. It also requires a significant
//! amount of state in the gateways."
//!
//! The format is deliberately minimal: circuits are identified per link by
//! a 16-bit VCI; a call-setup message carries the destination address the
//! switches use to pick the next hop (and allocate per-circuit state);
//! data packets carry only the VCI.

use crate::buf::PacketBuf;
use crate::{Error, Result};

/// Message discriminants.
mod msgtype {
    pub const SETUP: u8 = 1;
    pub const ACCEPT: u8 = 2;
    pub const REJECT: u8 = 3;
    pub const TEARDOWN: u8 = 4;
    pub const DATA: u8 = 5;
}

/// A virtual-circuit identifier, meaningful per link.
pub type Vci = u16;

/// A parsed CVC message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Open a circuit toward `dest` using `vci` on this link. `reserve`
    /// is the bandwidth to reserve in bits/sec (the static resource
    /// allocation the paper criticizes; 0 = none).
    Setup {
        /// VCI chosen by the caller for this link.
        vci: Vci,
        /// Flat destination address (same space as the IP-like baseline).
        dest: u32,
        /// Reserved bandwidth in bits/sec, 0 for best effort.
        reserve: u32,
    },
    /// The circuit is open end-to-end.
    Accept {
        /// Echoed VCI.
        vci: Vci,
    },
    /// The circuit could not be opened (no state, no bandwidth, no route).
    Reject {
        /// Echoed VCI.
        vci: Vci,
        /// Diagnostic code.
        reason: u8,
    },
    /// Release the circuit and its switch state.
    Teardown {
        /// Echoed VCI.
        vci: Vci,
    },
    /// User data on an open circuit.
    Data {
        /// The circuit this belongs to.
        vci: Vci,
        /// Payload bytes, shared: a switch hands them on uncopied.
        payload: PacketBuf,
    },
}

/// Fixed overhead of a CVC data packet: type byte + VCI. This is the
/// per-packet header-size advantage circuits buy with their setup cost.
pub const DATA_HEADER_LEN: usize = 3;

/// The longest fixed part of a message (a `Setup`'s).
pub const MAX_HEADER_LEN: usize = 11;

impl Message {
    /// Bytes in the fixed part of a message whose type byte is `kind`:
    /// all of it but a `Data` payload.
    pub fn header_len(kind: u8) -> usize {
        match kind {
            msgtype::SETUP => MAX_HEADER_LEN,
            msgtype::REJECT => 4,
            _ => DATA_HEADER_LEN,
        }
    }

    /// Emit everything but a `Data` payload, which travels behind these
    /// bytes as it is. Returns the bytes written.
    pub fn emit_header(&self, buffer: &mut [u8]) -> Result<usize> {
        let mut v = [0; MAX_HEADER_LEN];
        let (kind, vci) = match *self {
            Message::Setup { vci, dest, reserve } => {
                v[3..7].copy_from_slice(&dest.to_be_bytes());
                v[7..11].copy_from_slice(&reserve.to_be_bytes());
                (msgtype::SETUP, vci)
            }
            Message::Accept { vci } => (msgtype::ACCEPT, vci),
            Message::Reject { vci, reason } => {
                v[3] = reason;
                (msgtype::REJECT, vci)
            }
            Message::Teardown { vci } => (msgtype::TEARDOWN, vci),
            Message::Data { vci, .. } => (msgtype::DATA, vci),
        };
        v[0] = kind;
        v[1..3].copy_from_slice(&vci.to_be_bytes());
        let len = Message::header_len(kind);
        let out = buffer.get_mut(..len).ok_or(Error::Truncated)?;
        out.copy_from_slice(&v[..len]);
        Ok(len)
    }

    /// Parse a message from its fixed part, `head` (bytes past
    /// [`Message::header_len`] are ignored), and what follows it, `data`:
    /// a `Data` message's payload, kept as a window onto `data`'s store.
    pub fn parse(head: &[u8], data: PacketBuf) -> Result<Message> {
        let &[kind, v0, v1, ref rest @ ..] = head else {
            return Err(Error::Truncated);
        };
        let vci = u16::from_be_bytes([v0, v1]);
        let word = |at: usize| {
            let bytes = rest.get(at..at + 4).ok_or(Error::Truncated)?;
            Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
        };
        Ok(match kind {
            msgtype::SETUP => Message::Setup {
                vci,
                dest: word(0)?,
                reserve: word(4)?,
            },
            msgtype::ACCEPT => Message::Accept { vci },
            msgtype::REJECT => Message::Reject {
                vci,
                reason: *rest.first().ok_or(Error::Truncated)?,
            },
            msgtype::TEARDOWN => Message::Teardown { vci },
            msgtype::DATA => Message::Data { vci, payload: data },
            _ => return Err(Error::Malformed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message's bytes, flat: its fixed part, then any payload.
    pub(super) fn flat(m: &Message) -> Vec<u8> {
        let mut v = vec![0; MAX_HEADER_LEN];
        let n = m.emit_header(&mut v).unwrap();
        v.truncate(n);
        if let Message::Data { payload, .. } = m {
            v.extend_from_slice(payload);
        }
        v
    }

    /// Parse flat bytes the way a receiver splits them.
    pub(super) fn parse(bytes: &[u8]) -> Result<Message> {
        let n = bytes.first().map_or(0, |&k| Message::header_len(k));
        let n = n.min(bytes.len());
        Message::parse(&bytes[..n], PacketBuf::from(&bytes[n..]))
    }

    #[test]
    fn all_messages_roundtrip() {
        let msgs = [
            Message::Setup {
                vci: 42,
                dest: 0xC0A80105,
                reserve: 1_000_000,
            },
            Message::Accept { vci: 42 },
            Message::Reject { vci: 42, reason: 3 },
            Message::Teardown { vci: 42 },
            Message::Data {
                vci: 42,
                payload: PacketBuf::from(b"circuit bytes"),
            },
        ];
        for (m, len) in msgs.into_iter().zip([11, 3, 4, 3, 16]) {
            let bytes = flat(&m);
            assert_eq!(bytes.len(), len);
            assert_eq!(parse(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn data_header_is_three_bytes() {
        let m = Message::Data {
            vci: 1,
            payload: PacketBuf::from(vec![0; 100]),
        };
        assert_eq!(m.emit_header(&mut [0; MAX_HEADER_LEN]), Ok(DATA_HEADER_LEN));
        assert_eq!(m.emit_header(&mut [0; 2]), Err(Error::Truncated));
        // The payload is kept as a window, not copied.
        let data = PacketBuf::from(vec![7; 10]);
        let Ok(Message::Data { payload, .. }) = Message::parse(&[5, 0, 1], data.clone()) else {
            panic!("data")
        };
        assert!(payload.shares_store_with(&data));
    }

    #[test]
    fn junk_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&[9, 0, 1]).is_err());
        assert!(parse(&[msgtype::SETUP, 0, 1]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{flat, parse};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn data_roundtrip(vci in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let m = Message::Data { vci, payload: PacketBuf::from(payload) };
            prop_assert_eq!(parse(&flat(&m)).unwrap(), m);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = parse(&bytes);
        }
    }
}
