//! Violating fixture: a data-plane module (its inner attribute denies
//! `clippy::panic`) that asserts on the forwarding path.

#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]

pub fn forward(q: &[u8], i: usize) -> Option<u8> {
    assert!(i < q.len(), "index out of range");
    assert_eq!(q.first(), Some(&0));
    assert_ne!(q.len(), 1);
    q.get(i).copied()
}
