//! Clean fixture: the same host with its walked table ordered. The
//! lookup-only `HashMap` is legal outside the deterministic core.

use std::collections::{BTreeMap, HashMap};

/// A host with per-destination state.
pub struct Host {
    routes: BTreeMap<u32, u8>,
    pending: HashMap<u64, u32>,
    events: Vec<u32>,
}

impl Node for Host {
    fn on_event(&mut self, _ctx: &mut Context<'_>, ev: Event) {
        for (dst, _) in self.routes.iter() {
            self.events.push(*dst);
        }
        self.pending.remove(&ev.key());
    }
}
