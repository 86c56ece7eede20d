//! Conservative time-window execution of sharded simulators.
//!
//! The runner advances all shards in lockstep windows `[W, W + L)` where
//! `L` is the partition's lookahead (minimum propagation delay of any
//! cross-shard channel). Safety argument, spelled out in DESIGN.md §11:
//! every cross-shard message produced while a shard executes inside
//! `[W, W + L)` carries an arrival time `>= send_time + prop >= W + L`,
//! i.e. it lands at or after the *next* window's start — so executing
//! the current window without seeing it can never violate causality.
//!
//! Window starts hop straight to the global minimum pending event time
//! (published through per-shard atomics, reduced after a barrier), so
//! sparse regions of simulated time cost one barrier round, not
//! `horizon / L` of them.
//!
//! Worker threads own disjoint, contiguous slices of the shard vector.
//! All cross-thread traffic flows through per-shard [`Mailbox`]es, whose
//! lock is held for one `Vec` operation and never escapes; the two
//! barriers per iteration order "publish next-event times" and "exchange
//! mailboxes" so that a mailbox is never written and drained in the same
//! half-window. Thread count therefore cannot affect any
//! simulation-visible ordering — only which OS thread happens to execute
//! a shard's (already deterministic) work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use crate::engine::{OutMsg, Simulator};
use crate::time::SimTime;

use mailbox::{Mail, Mailbox};

/// The one lock in the window protocol, in a module of its own so the
/// mutex is unreachable from the window loop: `post` and `take` are the
/// only ways in, each holds the lock for one `Vec` operation, and neither
/// hands out a guard. "No guard live across `Barrier::wait`" and "mailbox
/// locks never nest" hold by construction.
mod mailbox {
    use std::sync::{Mutex, PoisonError};

    use crate::engine::OutMsg;

    /// Messages tagged with the shard that sent them.
    pub(super) type Mail = Vec<(u32, OutMsg)>;

    /// One shard's inbound mail: posted by producers as they close a
    /// window, taken by the owner after the barrier.
    pub(super) struct Mailbox(Mutex<Mail>);

    // Poison is ignored: every update is one whole `Vec` operation, so
    // the mail is valid whenever the lock is free — and a panicking
    // worker aborts the process anyway (`AbortOnPanic`).
    impl Mailbox {
        pub(super) fn new() -> Mailbox {
            Mailbox(Mutex::new(Vec::new()))
        }

        /// Append one producer's batch.
        pub(super) fn post(&self, batch: Mail) {
            let mut mail = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            mail.extend(batch);
        }

        /// Take everything posted so far.
        pub(super) fn take(&self) -> Mail {
            let mut mail = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *mail)
        }
    }
}

/// If a worker's node code panics while other workers wait on a
/// barrier, the process would deadlock (std's `Barrier` has no poison
/// protocol). This guard turns such a panic into a process abort with
/// the panic message already printed — loud and immediate beats hung.
struct AbortOnPanic;

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::abort();
        }
    }
}

/// What the workers of one [`run_windows`] call share.
struct Windows<'a> {
    /// Shard owning each node.
    owner: &'a [usize],
    lookahead: u64,
    deadline: SimTime,
    barrier: Barrier,
    /// One per shard, indexed by shard.
    mailboxes: Vec<Mailbox>,
    /// Each shard's next pending event time, republished every window.
    next_times: Vec<AtomicU64>,
}

/// Run every shard up to and including `deadline` using at most
/// `threads` worker threads (clamped to the shard count).
pub(crate) fn run_windows(
    shards: &mut [Simulator],
    owner: &[usize],
    lookahead_ns: Option<u64>,
    deadline: SimTime,
    threads: usize,
) {
    let s = shards.len();
    match shards {
        [] => return,
        [sim] => return sim.run_until(deadline),
        _ => {}
    }
    let workers = threads.clamp(1, s);
    let chunk = s.div_ceil(workers);
    let windows = Windows {
        owner,
        // No cross-shard link: every shard is causally independent and
        // can run to the deadline in one shot (lookahead saturates the
        // window).
        lookahead: lookahead_ns.unwrap_or(u64::MAX),
        deadline,
        barrier: Barrier::new(s.div_ceil(chunk)),
        mailboxes: (0..s).map(|_| Mailbox::new()).collect(),
        next_times: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
    };

    std::thread::scope(|scope| {
        for (w, slice) in shards.chunks_mut(chunk).enumerate() {
            let windows = &windows;
            scope.spawn(move || {
                let _guard = AbortOnPanic;
                windows.work(slice, w * chunk);
            });
        }
    });
}

impl Windows<'_> {
    /// One worker's share of the window protocol. `sims` is the
    /// contiguous run of shards starting at global index `base`.
    fn work(&self, sims: &mut [Simulator], base: usize) {
        loop {
            // Publish each owned shard's next pending event time. Relaxed
            // suffices: the barrier provides the ordering edge.
            for (sim, slot) in sims.iter_mut().zip(self.next_times.iter().skip(base)) {
                slot.store(sim.next_event_ns().unwrap_or(u64::MAX), Ordering::Relaxed);
            }
            self.barrier.wait();
            // Every worker computes the same global minimum from the same
            // (barrier-frozen) slots, so all take the same branch below.
            let global_next = self
                .next_times
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .min()
                .unwrap_or(u64::MAX);

            if global_next > self.deadline.as_nanos() {
                // Nothing left inside the horizon anywhere: finish clocks
                // (chaos scheduled exactly at the deadline still applies)
                // and stop. Mailboxes are provably empty here — every
                // window's sends were drained before its next publish.
                for sim in sims.iter_mut() {
                    sim.run_until(self.deadline);
                }
                self.barrier.wait();
                return;
            }

            let w_end = global_next.saturating_add(self.lookahead);
            for (i, sim) in sims.iter_mut().enumerate() {
                if w_end > self.deadline.as_nanos() {
                    // Final window: run through the deadline inclusively;
                    // the exchange below still queues (not loses)
                    // deliveries landing beyond it for any later phase.
                    sim.run_until(self.deadline);
                } else {
                    // Interior window [global_next, w_end): strictly
                    // before, so events at exactly w_end see mail sent
                    // during this window.
                    sim.run_before(SimTime(w_end));
                }
                self.flush_outbox(base + i, sim);
            }
            self.barrier.wait();
            // Drain after the barrier: every producer finished flushing,
            // and nobody posts again until after the next barrier.
            for (i, sim) in sims.iter_mut().enumerate() {
                self.deliver_inbox(base + i, sim);
            }
        }
    }

    /// Route shard `me`'s outbox into the destination mailboxes:
    /// deliveries to the shard owning the target node, cancel tombstones
    /// to every other shard (any of them may hold an undelivered copy).
    fn flush_outbox(&self, me: usize, sim: &mut Simulator) {
        let out = sim.take_outbox();
        if out.is_empty() {
            return;
        }
        // Group per destination first so each mailbox is posted to once
        // per window, not once per message.
        let mut per: Vec<Mail> = self.mailboxes.iter().map(|_| Vec::new()).collect();
        for msg in out {
            match msg {
                OutMsg::Deliver { target, .. } => {
                    let dest = self.owner.get(target.0).copied().unwrap_or(0);
                    if let Some(batch) = per.get_mut(dest) {
                        batch.push((me as u32, msg));
                    }
                }
                OutMsg::Cancel { .. } => {
                    for (dest, batch) in per.iter_mut().enumerate() {
                        if dest != me {
                            batch.push((me as u32, msg.clone()));
                        }
                    }
                }
            }
        }
        for (mailbox, batch) in self.mailboxes.iter().zip(per) {
            if !batch.is_empty() {
                mailbox.post(batch);
            }
        }
    }

    /// Drain shard `me`'s mailbox in a deterministic order: cancels first
    /// (tombstones must beat the deliveries they refer to), then
    /// deliveries by (arrival time, source shard); `sort_by_key` is
    /// stable, so each source's in-order batch stays in order on ties.
    fn deliver_inbox(&self, me: usize, sim: &mut Simulator) {
        let Some(mailbox) = self.mailboxes.get(me) else {
            return;
        };
        let mut inbox = mailbox.take();
        inbox.sort_by_key(|(src, msg)| match msg {
            OutMsg::Cancel { .. } => (0u64, *src),
            // Arrival times are strictly positive (>= window end), so
            // clamping to 1 keeps cancels unambiguously first.
            OutMsg::Deliver { time, .. } => (time.as_nanos().max(1), *src),
        });
        for (_, msg) in inbox {
            sim.inject(msg);
        }
    }
}
