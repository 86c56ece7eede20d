//! The router-side token cache and authorization policies.
//!
//! §2.2: "Because the token is an encrypted capability that may be
//! difficult to fully decrypt and check in real time before the packet is
//! forwarded, the router retains a cached version of the token such that
//! it can check and authorize packet forwarding in real time from the
//! cached version."
//!
//! Three first-packet policies are modelled, exactly as enumerated in
//! the paper:
//!
//! * **Optimistic** — the first packet "may be allowed through, deferring
//!   enforcement of full authorization to subsequent packets". The cache
//!   resolves the token in the background; if it turns out invalid, "the
//!   cached entry is flagged indicating a problem with packets carrying
//!   this token value. Subsequent packets using this token are then
//!   blocked."
//! * **Blocking** — "the initial packet can be handled as a blocked
//!   packet, the same as if the outgoing port is unavailable. The
//!   blocking action allows some time for the token to be processed."
//! * **Drop** — "the packet could be dropped."
//!
//! The attack footnote is also implemented: "Malicious attacks of
//! unauthorized packets with many different invalid tokens could be
//! handled by the router switching to blocking authentication when
//! excessive invalid tokens are received."

use std::collections::BTreeMap;

use crate::accounting::Accounting;
use crate::seal::SealingKey;
use sirpent_wire::token::Body;
use sirpent_wire::viper::Priority;

/// First-packet authorization policy (§2.2's three options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthPolicy {
    /// Let the first packet through while the token resolves.
    Optimistic,
    /// Treat the first packet as blocked until the token resolves.
    Blocking,
    /// Drop packets bearing unknown tokens.
    Drop,
}

/// Why a packet was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The token failed MAC verification or was structurally invalid.
    Forged,
    /// Drop-policy router saw a token it had not yet verified.
    NotYetVerified,
    /// A previously cached token was flagged invalid.
    FlaggedInvalid,
    /// Valid token, but for a different router.
    WrongRouter,
    /// Valid token, but for a different output port.
    WrongPort,
    /// The packet's priority exceeds what the token authorizes.
    PriorityExceeded,
    /// The token has expired.
    Expired,
    /// The token's byte budget is exhausted.
    OverLimit,
    /// The return-direction use was not authorized by this token.
    ReverseNotAuthorized,
}

/// The outcome of checking one packet's token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Forward the packet now.
    Forward,
    /// Hold the packet (as if the output port were busy) while the token
    /// is verified; re-present it after the verification delay.
    Block,
    /// Discard the packet.
    Reject(RejectReason),
}

/// Telemetry for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// What to do with the packet.
    pub decision: Decision,
    /// Whether the cached fast path served this check.
    pub cache_hit: bool,
    /// Whether a full decrypt+verify was performed (the slow path whose
    /// cost the cache exists to hide).
    pub did_decrypt: bool,
}

#[derive(Debug, Clone)]
enum Entry {
    /// Verified valid token and its running usage.
    Valid { body: Body, bytes_used: u64 },
    /// Flagged invalid (failed verification once; never re-verified).
    Invalid,
}

/// Parameters of the invalid-token attack response.
#[derive(Debug, Clone, Copy)]
pub struct AttackResponse {
    /// Switch to blocking authentication after this many invalid tokens…
    pub threshold: u32,
    /// …seen within this many seconds.
    pub window_s: u32,
}

impl Default for AttackResponse {
    fn default() -> Self {
        AttackResponse {
            threshold: 16,
            window_s: 1,
        }
    }
}

/// The cache itself. One per router.
pub struct TokenCache {
    key: SealingKey,
    router_id: u32,
    policy: AuthPolicy,
    attack: AttackResponse,
    /// Keyed by the whole sealed token, never a prefix: a forged token
    /// sharing a valid one's prefix must not hit its entry.
    entries: BTreeMap<Vec<u8>, Entry>,
    invalid_events: Vec<u32>, // timestamps (s) of invalid-token sightings
    accounting: Accounting,
    /// Count of packets forwarded optimistically before their token was
    /// verified (the paper's accepted worst case: "one or a small number
    /// of unauthorized packets can be allowed through").
    pub optimistic_passes: u64,
}

impl TokenCache {
    /// Create a cache for the router owning `key`.
    pub fn new(key: SealingKey, router_id: u32, policy: AuthPolicy) -> TokenCache {
        TokenCache {
            key,
            router_id,
            policy,
            attack: AttackResponse::default(),
            entries: BTreeMap::new(),
            invalid_events: Vec::new(),
            accounting: Accounting::new(),
            optimistic_passes: 0,
        }
    }

    /// Change the attack-response parameters.
    pub fn set_attack_response(&mut self, a: AttackResponse) {
        self.attack = a;
    }

    /// Crash state loss (chaos layer): drop everything rebuilt from
    /// traffic — verified/invalid entries, flood-response sightings, and
    /// per-account usage accounting. The sealing key, policy, attack
    /// parameters, and the `optimistic_passes` telemetry counter are
    /// durable and survive; subsequent packets re-verify from scratch
    /// (and may ride the optimistic first-packet window again).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.invalid_events.clear();
        self.accounting = Accounting::new();
    }

    /// The configured policy.
    pub fn policy(&self) -> AuthPolicy {
        self.policy
    }

    /// The policy in force *right now*: the configured one, unless the
    /// invalid-token flood response has escalated to blocking.
    pub fn effective_policy(&self, now_s: u32) -> AuthPolicy {
        if self.policy == AuthPolicy::Optimistic && self.under_attack(now_s) {
            AuthPolicy::Blocking
        } else {
            self.policy
        }
    }

    fn under_attack(&self, now_s: u32) -> bool {
        let lo = now_s.saturating_sub(self.attack.window_s);
        let recent = self
            .invalid_events
            .iter()
            .rev()
            .take_while(|&&t| t >= lo)
            .count();
        recent as u32 >= self.attack.threshold
    }

    /// Validate a *resolved* body against this packet's parameters and
    /// charge accounting on success.
    ///
    /// A token names one **link** of its router (§2: "the portToken is
    /// actually a link token, authorizing transmission of packets back
    /// through this port as well"). A packet uses that link either as
    /// its *exit* (forward direction) or as its *entry* (reverse
    /// direction — permitted only when `reverse_ok` is set).
    #[allow(clippy::too_many_arguments)]
    fn authorize(
        body: Body,
        bytes_used: &mut u64,
        accounting: &mut Accounting,
        router_id: u32,
        exit_port: u8,
        arrival_port: Option<u8>,
        priority: Priority,
        packet_bytes: usize,
        now_s: u32,
    ) -> Decision {
        if body.router_id != router_id {
            return Decision::Reject(RejectReason::WrongRouter);
        }
        if body.port == exit_port {
            // Forward use of the named link.
        } else if arrival_port == Some(body.port) {
            // Reverse use: the packet entered on the named link.
            if !body.reverse_ok {
                return Decision::Reject(RejectReason::ReverseNotAuthorized);
            }
        } else {
            return Decision::Reject(RejectReason::WrongPort);
        }
        if !body.allows_priority(priority) {
            return Decision::Reject(RejectReason::PriorityExceeded);
        }
        if body.expiry_s != 0 && now_s >= body.expiry_s {
            return Decision::Reject(RejectReason::Expired);
        }
        if body.byte_limit != 0 && *bytes_used + packet_bytes as u64 > body.byte_limit as u64 {
            return Decision::Reject(RejectReason::OverLimit);
        }
        *bytes_used += packet_bytes as u64;
        accounting.charge(body.account, packet_bytes as u64);
        Decision::Forward
    }

    /// Check the token carried by one packet.
    ///
    /// * `sealed` — the raw `portToken` bytes from the VIPER segment.
    /// * `exit_port` — the output port the packet asks for.
    /// * `arrival_port` — the port it came in on (None for locally
    ///   originated packets); used for reverse-direction link tokens.
    /// * `priority` — the packet's priority nibble.
    /// * `packet_bytes` — size charged to the account on success.
    /// * `now_s` — coarse clock for expiry and the attack window.
    pub fn check(
        &mut self,
        sealed: &[u8],
        exit_port: u8,
        arrival_port: Option<u8>,
        priority: Priority,
        packet_bytes: usize,
        now_s: u32,
    ) -> CheckOutcome {
        // Fast path: cached.
        if let Some(entry) = self.entries.get_mut(sealed) {
            return match entry {
                Entry::Invalid => CheckOutcome {
                    decision: Decision::Reject(RejectReason::FlaggedInvalid),
                    cache_hit: true,
                    did_decrypt: false,
                },
                Entry::Valid { body, bytes_used } => {
                    let body = *body;
                    let decision = Self::authorize(
                        body,
                        bytes_used,
                        &mut self.accounting,
                        self.router_id,
                        exit_port,
                        arrival_port,
                        priority,
                        packet_bytes,
                        now_s,
                    );
                    CheckOutcome {
                        decision,
                        cache_hit: true,
                        did_decrypt: false,
                    }
                }
            };
        }

        // Slow path: resolve the token now and cache the verdict keyed by
        // the encrypted value (§2.2: "the new token is decrypted, checked
        // and cached (using the encrypted value as the key)").
        let resolved = self.key.unseal(sealed).ok();
        let policy = self.effective_policy(now_s);
        match resolved {
            None => {
                self.entries.insert(sealed.to_vec(), Entry::Invalid);
                self.invalid_events.push(now_s);
                let decision = match policy {
                    // Even optimistically, an already-resolved forgery is
                    // known bad — but resolution *takes time*; the
                    // optimistic router forwards before it finishes.
                    AuthPolicy::Optimistic => {
                        self.optimistic_passes += 1;
                        Decision::Forward
                    }
                    AuthPolicy::Blocking => Decision::Block,
                    AuthPolicy::Drop => Decision::Reject(RejectReason::Forged),
                };
                CheckOutcome {
                    decision,
                    cache_hit: false,
                    did_decrypt: true,
                }
            }
            Some(body) => {
                let mut bytes_used = 0u64;
                let decision = match policy {
                    AuthPolicy::Optimistic => {
                        // Forward immediately; the verification below
                        // happens "in the background" (its outcome lands
                        // in the cache for subsequent packets). Charge as
                        // usual.
                        self.optimistic_passes += 1;
                        Self::authorize(
                            body,
                            &mut bytes_used,
                            &mut self.accounting,
                            self.router_id,
                            exit_port,
                            arrival_port,
                            priority,
                            packet_bytes,
                            now_s,
                        );
                        Decision::Forward
                    }
                    AuthPolicy::Blocking => Decision::Block,
                    AuthPolicy::Drop => Decision::Reject(RejectReason::NotYetVerified),
                };
                self.entries
                    .insert(sealed.to_vec(), Entry::Valid { body, bytes_used });
                CheckOutcome {
                    decision,
                    cache_hit: false,
                    did_decrypt: true,
                }
            }
        }
    }

    /// Re-present a blocked packet after the verification delay: by now
    /// the entry is resolved, so this is a plain cached check.
    pub fn recheck_blocked(
        &mut self,
        sealed: &[u8],
        exit_port: u8,
        arrival_port: Option<u8>,
        priority: Priority,
        packet_bytes: usize,
        now_s: u32,
    ) -> CheckOutcome {
        debug_assert!(self.entries.contains_key(sealed), "recheck before check");
        self.check(
            sealed,
            exit_port,
            arrival_port,
            priority,
            packet_bytes,
            now_s,
        )
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accounting ledger (per-account usage), maintained from cache
    /// entries as §2.2 describes.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirpent_wire::token::Body;

    const ROUTER: u32 = 9;

    fn key() -> SealingKey {
        SealingKey::derive(0xFEED, ROUTER)
    }

    fn body(port: u8) -> Body {
        Body {
            port,
            max_priority: Priority::new(5),
            reverse_ok: false,
            account: 500,
            byte_limit: 0,
            expiry_s: 0,
            router_id: ROUTER,
            nonce: 1,
        }
    }

    fn sealed(port: u8) -> Vec<u8> {
        key().seal(&body(port)).to_vec()
    }

    #[test]
    fn optimistic_first_packet_passes_then_caches() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        let t = sealed(3);
        let o1 = c.check(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o1.decision, Decision::Forward);
        assert!(!o1.cache_hit);
        assert!(o1.did_decrypt);
        let o2 = c.check(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o2.decision, Decision::Forward);
        assert!(o2.cache_hit);
        assert!(!o2.did_decrypt, "fast path avoids the decrypt");
        assert_eq!(c.optimistic_passes, 1);
    }

    #[test]
    fn optimistic_lets_one_forged_packet_through_then_blocks() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        let forged = vec![0xEE; 32];
        let o1 = c.check(&forged, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(
            o1.decision,
            Decision::Forward,
            "worst case: one unauthorized packet slips (§2.2)"
        );
        let o2 = c.check(&forged, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(
            o2.decision,
            Decision::Reject(RejectReason::FlaggedInvalid),
            "subsequent packets with this token are stopped"
        );
        assert!(o2.cache_hit);
    }

    #[test]
    fn blocking_policy_blocks_then_forwards() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Blocking);
        let t = sealed(3);
        let o1 = c.check(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o1.decision, Decision::Block);
        let o2 = c.recheck_blocked(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o2.decision, Decision::Forward);
    }

    #[test]
    fn drop_policy_rejects_unknown() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Drop);
        let t = sealed(3);
        let o = c.check(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o.decision, Decision::Reject(RejectReason::NotYetVerified));
        // But once cached (e.g. by an out-of-band warm-up) it forwards.
        let o2 = c.check(&t, 3, None, Priority::NORMAL, 100, 0);
        assert_eq!(o2.decision, Decision::Forward, "cached now");
    }

    #[test]
    fn wrong_port_and_priority_rejected() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        let t = sealed(3);
        c.check(&t, 3, None, Priority::NORMAL, 0, 0); // cache it
        assert_eq!(
            c.check(&t, 4, None, Priority::NORMAL, 0, 0).decision,
            Decision::Reject(RejectReason::WrongPort)
        );
        assert_eq!(
            c.check(&t, 3, None, Priority::new(7), 0, 0).decision,
            Decision::Reject(RejectReason::PriorityExceeded)
        );
    }

    #[test]
    fn wrong_router_rejected() {
        let other = SealingKey::derive(0xFEED, ROUTER); // same key…
        let mut b = body(3);
        b.router_id = ROUTER + 1; // …but body names another router
        let t = other.seal(&b).to_vec();
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        c.check(&t, 3, None, Priority::NORMAL, 0, 0);
        assert_eq!(
            c.check(&t, 3, None, Priority::NORMAL, 0, 0).decision,
            Decision::Reject(RejectReason::WrongRouter)
        );
    }

    #[test]
    fn expiry_enforced() {
        let mut b = body(3);
        b.expiry_s = 100;
        let t = key().seal(&b).to_vec();
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        c.check(&t, 3, None, Priority::NORMAL, 0, 50);
        assert_eq!(
            c.check(&t, 3, None, Priority::NORMAL, 0, 50).decision,
            Decision::Forward
        );
        assert_eq!(
            c.check(&t, 3, None, Priority::NORMAL, 0, 100).decision,
            Decision::Reject(RejectReason::Expired)
        );
    }

    #[test]
    fn byte_limit_enforced_and_accounted() {
        let mut b = body(3);
        b.byte_limit = 1000;
        let t = key().seal(&b).to_vec();
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        c.check(&t, 3, None, Priority::NORMAL, 400, 0); // optimistic, charged
        assert_eq!(
            c.check(&t, 3, None, Priority::NORMAL, 400, 0).decision,
            Decision::Forward
        );
        assert_eq!(
            c.check(&t, 3, None, Priority::NORMAL, 400, 0).decision,
            Decision::Reject(RejectReason::OverLimit),
            "third 400-byte packet would exceed 1000"
        );
        let usage = c.accounting().usage(500);
        assert_eq!(usage.bytes, 800);
        assert_eq!(usage.packets, 2);
    }

    #[test]
    fn reverse_use_requires_authorization() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        let t = sealed(3); // reverse_ok = false
        c.check(&t, 3, None, Priority::NORMAL, 0, 0);
        assert_eq!(
            c.check(&t, 1, Some(3), Priority::NORMAL, 0, 0).decision,
            Decision::Reject(RejectReason::ReverseNotAuthorized)
        );
        let mut b = body(3);
        b.reverse_ok = true;
        b.nonce = 2;
        let t2 = key().seal(&b).to_vec();
        c.check(&t2, 1, Some(3), Priority::NORMAL, 0, 0);
        assert_eq!(
            c.check(&t2, 1, Some(3), Priority::NORMAL, 0, 0).decision,
            Decision::Forward
        );
    }

    #[test]
    fn invalid_token_flood_escalates_to_blocking() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        c.set_attack_response(AttackResponse {
            threshold: 8,
            window_s: 10,
        });
        // Attack: many distinct forged tokens.
        for i in 0..8u8 {
            let mut forged = vec![i; 32];
            forged[0] = 0xBA;
            let o = c.check(&forged, 3, None, Priority::NORMAL, 0, 5);
            assert_eq!(o.decision, Decision::Forward, "still optimistic");
        }
        assert_eq!(c.effective_policy(5), AuthPolicy::Blocking);
        // The ninth forged token is now blocked, not forwarded.
        let o = c.check(&[0xCC; 32], 3, None, Priority::NORMAL, 0, 5);
        assert_eq!(o.decision, Decision::Block);
        // Outside the window the response relaxes.
        assert_eq!(c.effective_policy(60), AuthPolicy::Optimistic);
    }

    #[test]
    fn accounting_across_tokens_same_account() {
        let mut c = TokenCache::new(key(), ROUTER, AuthPolicy::Optimistic);
        let mut b2 = body(3);
        b2.nonce = 77;
        let t1 = sealed(3);
        let t2 = key().seal(&b2).to_vec();
        c.check(&t1, 3, None, Priority::NORMAL, 100, 0);
        c.check(&t2, 3, None, Priority::NORMAL, 250, 0);
        assert_eq!(c.accounting().usage(500).bytes, 350);
        assert_eq!(c.len(), 2);
    }
}
