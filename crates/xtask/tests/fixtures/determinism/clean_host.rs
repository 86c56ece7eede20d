//! Clean fixture: the same host with its tables ordered, the one only
//! looked up as well as the one walked.

use std::collections::BTreeMap;

/// A host with per-destination state.
pub struct Host {
    routes: BTreeMap<u32, u8>,
    pending: BTreeMap<u64, u32>,
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
