//! Directory-side token issuance.
//!
//! "The token values are provided by the routing directory servers at the
//! time that the source determines the route" (§5). The minter holds the
//! administrative domain's master secret, derives each router's sealing
//! key, and stamps out per-hop tokens alongside the route. "The
//! internetwork can limit resource demands on a per-router basis by
//! limiting the tokens issued to users" (§2.2).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::seal::SealingKey;
use sirpent_wire::token::{AccountId, Body, SEALED_LEN};
use sirpent_wire::viper::Priority;

/// Parameters for one token grant.
#[derive(Debug, Clone, Copy)]
pub struct Grant {
    /// Router the token is valid at.
    pub router_id: u32,
    /// Output port it authorizes there.
    pub port: u8,
    /// Priority ceiling.
    pub max_priority: Priority,
    /// Whether the reverse direction is also authorized.
    pub reverse_ok: bool,
    /// Account to charge.
    pub account: AccountId,
    /// Byte budget (0 = unlimited).
    pub byte_limit: u32,
    /// Expiry in whole seconds of simulation time (0 = never).
    pub expiry_s: u32,
}

/// Mints sealed tokens for routers in one administrative domain.
///
/// Each router's sealing key is derived the first time the minter
/// mints for it and kept: a derivation costs more cipher rounds than
/// the seal itself. A kept key is 216 bytes.
pub struct TokenMinter {
    master: u64,
    rng: StdRng,
    keys: BTreeMap<u32, SealingKey>,
}

impl TokenMinter {
    /// Create a minter over the domain `master` secret.
    pub fn new(master: u64, seed: u64) -> TokenMinter {
        TokenMinter {
            master,
            rng: StdRng::seed_from_u64(seed),
            keys: BTreeMap::new(),
        }
    }

    /// The sealing key a given router must be provisioned with to verify
    /// this domain's tokens.
    pub fn router_key(&self, router_id: u32) -> SealingKey {
        SealingKey::derive(self.master, router_id)
    }

    /// Mint one sealed token.
    pub fn mint(&mut self, grant: Grant) -> [u8; SEALED_LEN] {
        let body = Body {
            port: grant.port,
            max_priority: grant.max_priority,
            reverse_ok: grant.reverse_ok,
            account: grant.account,
            byte_limit: grant.byte_limit,
            expiry_s: grant.expiry_s,
            router_id: grant.router_id,
            nonce: self.rng.gen(),
        };
        let master = self.master;
        self.keys
            .entry(grant.router_id)
            .or_insert_with(|| SealingKey::derive(master, grant.router_id))
            .seal(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(router_id: u32) -> Grant {
        Grant {
            router_id,
            port: 2,
            max_priority: Priority::new(5),
            reverse_ok: true,
            account: 42,
            byte_limit: 0,
            expiry_s: 0,
        }
    }

    #[test]
    fn minted_token_verifies_at_its_router() {
        let mut m = TokenMinter::new(0xAAAA, 7);
        let t = m.mint(grant(3));
        let body = m.router_key(3).unseal(&t).unwrap();
        assert_eq!(body.port, 2);
        assert_eq!(body.account, 42);
        assert_eq!(body.router_id, 3);
    }

    #[test]
    fn minted_token_fails_at_other_router() {
        let mut m = TokenMinter::new(0xAAAA, 7);
        let t = m.mint(grant(3));
        assert!(m.router_key(4).unseal(&t).is_err());
    }

    #[test]
    fn nonces_make_tokens_unique() {
        let mut m = TokenMinter::new(0xAAAA, 7);
        let a = m.mint(grant(3));
        let b = m.mint(grant(3));
        assert_ne!(a, b, "same grant, fresh nonce, distinct token");
        // Both verify.
        assert!(m.router_key(3).unseal(&a).is_ok());
        assert!(m.router_key(3).unseal(&b).is_ok());
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut m1 = TokenMinter::new(1, 2);
        let mut m2 = TokenMinter::new(1, 2);
        assert_eq!(m1.mint(grant(5)), m2.mint(grant(5)));
    }
}
