//! Stage 3 — authorize: check the link token against the token cache
//! (optimistic / blocking / drop policies, §2.2).

use sirpent_sim::stats::Stage;
use sirpent_sim::{Context, SimDuration};
use sirpent_token::Decision;

use crate::dataplane::Work;

use super::{DropReason, OutPorts, Pending, ViperRouter};

impl ViperRouter {
    pub(super) fn auth_then_forward(
        &mut self,
        ctx: &mut Context<'_>,
        work: Work,
        out_ports: OutPorts,
    ) {
        if let Some(cache) = self.token_cache.as_mut() {
            let require = self
                .cfg
                .auth
                .as_ref()
                .map(|a| a.require_token)
                .unwrap_or(false);
            if work.seg.port_token().is_empty() {
                if require {
                    self.drop_keyed(ctx, work.flight_key, DropReason::TokenMissing);
                    return;
                }
            } else {
                self.stats.enter(Stage::Authorize);
                let now_s = (ctx.now().as_nanos() / 1_000_000_000) as u32;
                // Tokens are *link tokens* (§2): the cache accepts the
                // packet when the token's port matches either the exit
                // port (forward use) or the arrival port (reverse use,
                // which additionally requires reverse authorization).
                let outcome = cache.check(
                    work.seg.port_token(),
                    work.seg.port(),
                    work.arrival_port,
                    work.seg.priority(),
                    work.packet.len(),
                    now_s,
                );
                if outcome.cache_hit {
                    self.stats.token_cache_hits += 1;
                }
                if outcome.did_decrypt {
                    self.stats.token_decrypts += 1;
                    // The modeled decrypt cost is the configured verify
                    // delay (the cache resolves synchronously; the delay
                    // is charged to blocked packets as wait time).
                    let cost = self
                        .cfg
                        .auth
                        .as_ref()
                        .map(|a| a.verify_delay)
                        .unwrap_or(SimDuration::from_micros(100));
                    self.stats.token_decrypt_ns.record(cost.as_nanos());
                }
                match outcome.decision {
                    Decision::Forward => {}
                    Decision::Block => {
                        self.stats.token_blocked += 1;
                        let delay = self
                            .cfg
                            .auth
                            .as_ref()
                            .map(|a| a.verify_delay)
                            .unwrap_or(SimDuration::from_micros(100));
                        let at = ctx.now() + delay;
                        self.held
                            .hold(ctx, at, work.in_frame, Pending::Retry(work, out_ports));
                        return;
                    }
                    Decision::Reject(_) => {
                        self.drop_keyed(ctx, work.flight_key, DropReason::TokenRejected);
                        return;
                    }
                }
            }
        }
        self.finish_forward(ctx, work, out_ports);
    }

    pub(super) fn retry(&mut self, ctx: &mut Context<'_>, work: Work, out_ports: OutPorts) {
        // The blocking delay has elapsed; the cache is resolved now.
        if let Some(cache) = self.token_cache.as_mut() {
            let now_s = (ctx.now().as_nanos() / 1_000_000_000) as u32;
            let outcome = cache.recheck_blocked(
                work.seg.port_token(),
                work.seg.port(),
                work.arrival_port,
                work.seg.priority(),
                work.packet.len(),
                now_s,
            );
            match outcome.decision {
                Decision::Forward => self.finish_forward(ctx, work, out_ports),
                _ => self.drop_keyed(ctx, work.flight_key, DropReason::TokenRejected),
            }
        }
    }
}
