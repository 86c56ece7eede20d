//! Clean fixture: no inner attribute denies `clippy::panic`, so this is
//! not the data plane and may assert.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub fn frame(len: usize) -> Vec<u8> {
    assert!(len <= 1500, "frame larger than the MTU");
    vec![0; len]
}
