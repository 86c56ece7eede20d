//! Tree-structured multicast encoding (§2, second mechanism —
//! "as proposed with Blazenet").
//!
//! A segment whose TRB flag is set carries, in its `portInfo`, a list of
//! **branches**; each branch is a byte string of ordinary VIPER header
//! segments that replaces the tree segment for one copy of the packet:
//!
//! ```text
//! portInfo = [count: u8] ( [len: u16 BE] [branch segment bytes…] )*
//! ```
//!
//! "Effectively, there are multiple header segments specified for a
//! routing point, with each header segment causing a copy of the packet
//! to be routed according to the port it specifies" — and unlike the
//! multicast-agent mechanism, each copy carries *only its portion of the
//! route*.

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

use sirpent_wire::viper::SegmentRepr;
use sirpent_wire::{Error, Result};

/// Encode branches (each a chain of segments) into a TRB `portInfo`.
pub fn encode_tree(branches: &[Vec<SegmentRepr>]) -> Result<Vec<u8>> {
    if branches.is_empty() || branches.len() > 255 {
        return Err(Error::Malformed);
    }
    let mut out = vec![branches.len() as u8];
    for branch in branches {
        let mut bytes = Vec::new();
        for seg in branch {
            bytes.extend_from_slice(&seg.to_bytes());
        }
        if bytes.len() > u16::MAX as usize {
            return Err(Error::Malformed);
        }
        out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    Ok(out)
}

/// Decode a TRB `portInfo` into raw branch byte strings (each a chain of
/// encoded segments, validated for parseability by the caller as it
/// routes them).
pub fn decode_tree(port_info: &[u8]) -> Result<Vec<Vec<u8>>> {
    let (&count, mut rest) = port_info.split_first().ok_or(Error::Truncated)?;
    if count == 0 {
        return Err(Error::Malformed);
    }
    let mut branches = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (len, after) = rest.split_first_chunk::<2>().ok_or(Error::Truncated)?;
        let (branch, after) = after
            .split_at_checked(u16::from_be_bytes(*len) as usize)
            .ok_or(Error::Truncated)?;
        branches.push(branch.to_vec());
        rest = after;
    }
    if !rest.is_empty() {
        return Err(Error::Malformed);
    }
    Ok(branches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_two_branches() {
        let b1 = vec![SegmentRepr::minimal(3), SegmentRepr::minimal(0)];
        let b2 = vec![SegmentRepr::minimal(5)];
        let info = encode_tree(&[b1.clone(), b2.clone()]).unwrap();
        let decoded = decode_tree(&info).unwrap();
        assert_eq!(decoded.len(), 2);
        // Each branch re-parses to the original segments.
        let (s, used) = SegmentRepr::parse_prefix(&decoded[0]).unwrap();
        assert_eq!(s.port, 3);
        let (s2, _) = SegmentRepr::parse_prefix(&decoded[0][used..]).unwrap();
        assert_eq!(s2.port, 0);
        let (s3, _) = SegmentRepr::parse_prefix(&decoded[1]).unwrap();
        assert_eq!(s3.port, 5);
    }

    #[test]
    fn empty_and_trailing_garbage_rejected() {
        assert!(encode_tree(&[]).is_err());
        assert!(decode_tree(&[]).is_err());
        assert!(decode_tree(&[0]).is_err());
        let mut info = encode_tree(&[vec![SegmentRepr::minimal(1)]]).unwrap();
        info.push(0xFF);
        assert!(decode_tree(&info).is_err(), "trailing garbage");
        assert!(decode_tree(&info[..info.len() - 6]).is_err(), "truncated");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn tree_roundtrips(ports in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..4), 1..6)) {
            let branches: Vec<Vec<SegmentRepr>> = ports
                .iter()
                .map(|b| b.iter().map(|&p| SegmentRepr::minimal(p)).collect())
                .collect();
            let info = encode_tree(&branches).unwrap();
            let decoded = decode_tree(&info).unwrap();
            prop_assert_eq!(decoded.len(), branches.len());
            for (raw, want) in decoded.iter().zip(&branches) {
                let mut at = 0;
                for seg in want {
                    let (got, used) = SegmentRepr::parse_prefix(&raw[at..]).unwrap();
                    prop_assert_eq!(&got, seg);
                    at += used;
                }
                prop_assert_eq!(at, raw.len());
            }
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_tree(&bytes);
        }
    }
}
