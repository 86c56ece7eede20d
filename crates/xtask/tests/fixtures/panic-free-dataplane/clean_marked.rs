//! Clean fixture: a data-plane module states its invariants with
//! `debug_assert!`, which compiles out of release, and its tests may
//! assert.

#![cfg_attr(not(test), deny(clippy::panic))]

pub fn forward(q: &[u8], i: usize) -> Option<u8> {
    debug_assert!(i < q.len(), "the caller checked the index");
    debug_assert_eq!(q.first(), Some(&0));
    q.get(i).copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_assert() {
        assert!(super::forward(&[0], 3).is_none());
    }
}
