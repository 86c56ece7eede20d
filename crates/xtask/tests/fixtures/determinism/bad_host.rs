//! Violating fixture: a host. Nothing in the fixture set calls
//! `on_event` — the engine reaches it through `Box<dyn Node>` — so only
//! an at-site check can see the hash container whose walk decides the
//! order of `events`.

use std::collections::HashMap;

/// A host with per-destination state, keyed for lookup.
pub struct Host {
    routes: HashMap<u32, u8>,
    events: Vec<u32>,
}

impl Node for Host {
    fn on_event(&mut self, _ctx: &mut Context<'_>, _ev: Event) {
        for (dst, _) in self.routes.iter() {
            self.events.push(*dst);
        }
    }
}
