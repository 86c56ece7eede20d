//! The minter's tokens, pinned.
//!
//! A token is a function of the domain master, the router's derived key,
//! the grant and the next nonce of the minter's seeded stream. Routes and
//! their tokens are replayed by digests downstream, so a change to how
//! the minter derives or keeps its keys is only correct if every token
//! byte stays what it was. [`minted_tokens_match_the_recorded_digest`]
//! folds 1 200 tokens, minted for 50 routers in an interleaved order so
//! that each router's key is used again long after it was first needed,
//! into one constant recorded before the minter kept its keys.

use sirpent_token::{Grant, TokenMinter};
use sirpent_wire::viper::Priority;

/// FNV-1a over `bytes`, continuing from `h`.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded on the minter that derived a router's key for every token.
const GOLDEN: u64 = 0x4053_cb81_28f7_6345;

const ROUTERS: u32 = 50;
const TOKENS: u32 = 1_200;

/// The `i`th grant: router ids step by 17 (coprime to 50), so every
/// router recurs every 50 grants and consecutive grants name different
/// routers; the other fields vary with `i`.
fn grant(i: u32) -> Grant {
    Grant {
        router_id: 1_000 + (i * 17) % ROUTERS,
        port: (i % 7) as u8,
        max_priority: Priority::new((i % 8) as u8),
        reverse_ok: i.is_multiple_of(3),
        account: i / 5,
        byte_limit: (i % 4) * 4_096,
        expiry_s: i % 11,
    }
}

#[test]
fn minted_tokens_match_the_recorded_digest() {
    let mut minter = TokenMinter::new(0x005E_EDD0_0DA1, 29);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..TOKENS {
        let g = grant(i);
        let token = minter.mint(g);
        digest = fold(digest, &token);
        let body = minter
            .router_key(g.router_id)
            .unseal(&token)
            .unwrap_or_else(|e| panic!("token {i} for router {}: {e}", g.router_id));
        assert_eq!(body.router_id, g.router_id, "token {i}");
        assert_eq!(body.port, g.port, "token {i}");
        assert_eq!(body.account, g.account, "token {i}");
        assert_eq!(body.byte_limit, g.byte_limit, "token {i}");
        assert_eq!(body.expiry_s, g.expiry_s, "token {i}");
    }
    assert_eq!(digest, GOLDEN, "minted tokens moved: {digest:#018x}");
}
