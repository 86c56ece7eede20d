//! Chaos property harness for the Sirpent simulator.
//!
//! One seed deterministically generates a mixed VIPER/IP/CVC topology,
//! a workload, and a timed fault schedule ([`spec`]); the harness
//! instantiates and runs it ([`scenario`]) and checks six global
//! invariants ([`invariants`]):
//!
//! 1. **Packet conservation** — every injected packet is delivered,
//!    counted by exactly one drop counter, or still queued behind a
//!    downed link at the horizon. No phantom deliveries.
//! 2. **Exactly-once** — no marker is delivered twice unless a
//!    duplication window was scheduled on its rail.
//! 3. **Abort ordering** — a receiver never consumes a cut-through
//!    frame whose transmission was aborted: every `FrameAborted` lands
//!    strictly before the frame's last bit would have.
//! 4. **Reply routing** — the return route accumulated in a delivered
//!    packet's trailer routes a reply back to the source, even across
//!    router crashes (source routes live in packets, not routers).
//! 5. **Diverted replies route back** — a packet delivered via an
//!    in-network diversion (Slick-Packets alternate branch) still gets
//!    its reply, and the reply's trailer retraces the path the forward
//!    packet *actually took*, bypass hops included.
//! 6. **Determinism** — the same seed produces a byte-identical run
//!    digest, every time.
//!
//! When a seed fails, the [`shrink`](mod@shrink) module minimizes the
//! scenario with a ddmin-style pass and writes a rerunnable text fixture.
//!
//! Beside the chaos harness sits the one scale workload: [`te`] plans a
//! flash crowd with the directory's TE search and runs it on cut-through
//! `ViperRouter`s over a [`topo`] mesh of up to 10 000 nodes. The TE
//! experiment (`exp te`) and the determinism suite
//! (`tests/te_determinism.rs`) are the same code at different sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
pub mod scenario;
pub mod shrink;
pub mod spec;
pub mod te;
pub mod topo;

pub use invariants::{check_corpus, check_exact, diverted_replies_route_back};
pub use scenario::{
    build, build_stripped, build_with_queue, execute, execute_stripped, execute_with_queue,
    outcome_digest, run, run_traced, ReplyRecord, RunReport,
};
pub use shrink::{shrink, write_fixture};
pub use spec::{Profile, Scenario};
pub use te::{TePlan, TeRunReport, TeWorkload};
pub use topo::TopoShape;

use sirpent_sim::{Context, Event, FrameId, Node, SimTime};
use std::any::Any;

/// A bare receiver that records frame announcements and aborts without
/// consuming or purging anything — the observation point for the abort
/// ordering invariant.
#[derive(Default)]
pub struct Sink {
    /// Every announced frame: `(id, first_bit, last_bit)`.
    pub frames: Vec<(FrameId, SimTime, SimTime)>,
    /// Every abort notice: `(id, time delivered)`.
    pub aborts: Vec<(FrameId, SimTime)>,
}

impl Sink {
    /// New empty sink.
    pub fn new() -> Sink {
        Sink::default()
    }
}

impl Node for Sink {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Frame(fe) => {
                self.frames.push((fe.frame.id, fe.first_bit, fe.last_bit));
            }
            Event::FrameAborted { frame, .. } => {
                self.aborts.push((frame, ctx.now()));
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
