//! Stage 4 — police: rate-based congestion control. Backpressure
//! signalling along feeder ports, soft flow-limit installation, and the
//! additive-increase recovery tick (§2.2).

use std::collections::BTreeMap;

use sirpent_sim::stats::Stage;
use sirpent_sim::{Context, SimTime};
use sirpent_wire::ethernet;

use crate::link::{LinkFrame, RateControlMsg};

use super::{FlowLimit, PortKind, ViperRouter, KEY_INCREASE_TICK};

impl ViperRouter {
    pub(super) fn maybe_signal_congestion(&mut self, ctx: &mut Context<'_>, out: u8) {
        if !self.cfg.congestion.enabled {
            return;
        }
        let Some(op) = self.ports.get(&out) else {
            return;
        };
        let qlen = op.sched.len();
        if qlen < self.cfg.congestion.queue_high {
            return;
        }
        // Identify the feeders of this queue from the arrival ports of
        // its queued packets (§2.2: "the congested router has access to
        // the source route [and arrival ports], it can easily determine
        // the upstream routers feeding the queue").
        let feeders: Vec<u8> = {
            let mut f: Vec<u8> = op.sched.queued().filter_map(|q| q.arrival_port).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        for feeder in feeders {
            self.maybe_signal_feeder(ctx, out, feeder, qlen);
        }
    }

    pub(super) fn maybe_signal_feeder(
        &mut self,
        ctx: &mut Context<'_>,
        out: u8,
        feeder: u8,
        qlen: usize,
    ) {
        let now = ctx.now();
        let last = self
            .last_signal
            .get(&(out, feeder))
            .copied()
            .unwrap_or(SimTime::ZERO);
        if last != SimTime::ZERO && now - last < self.cfg.congestion.signal_interval {
            return;
        }
        self.last_signal.insert((out, feeder), now);
        let out_rate = ctx.channel_rate(out).unwrap_or(0);
        let allowed = ((out_rate as f64 * self.cfg.congestion.decrease_factor) as u64)
            .max(self.cfg.congestion.min_rate_bps);
        let msg = RateControlMsg {
            congested_router: self.cfg.router_id,
            congested_port: out,
            allowed_bps: allowed,
            queue_len: qlen.min(u16::MAX as usize) as u16,
        };
        // Send upstream out the feeder port. For Ethernet feeders we
        // broadcast the control frame (stations filter).
        let Some(fp) = self.ports.get(&feeder) else {
            return;
        };
        let frame = match &fp.cfg.kind {
            PortKind::PointToPoint => LinkFrame::RateControl(msg).into_p2p_frame(),
            PortKind::Ethernet { mac } => {
                LinkFrame::RateControl(msg).into_ethernet_frame(*mac, ethernet::Address::BROADCAST)
            }
        };
        let _ = ctx.transmit(feeder, frame);
        self.stats.backpressure_sent += 1;
    }

    pub(super) fn on_rate_control(&mut self, ctx: &mut Context<'_>, port: u8, msg: RateControlMsg) {
        if !self.cfg.congestion.enabled {
            return;
        }
        self.stats.enter(Stage::Police);
        // Install/update the soft flow limit: packets leaving on `port`
        // (toward the congested router) whose next segment asks for the
        // congested output.
        let now = ctx.now();
        match self
            .limits
            .iter_mut()
            .find(|l| l.out_port == port && l.next_port == msg.congested_port)
        {
            Some(l) => l.allowed_bps = msg.allowed_bps.max(self.cfg.congestion.min_rate_bps),
            None => self.limits.push(FlowLimit {
                out_port: port,
                next_port: msg.congested_port,
                allowed_bps: msg.allowed_bps.max(self.cfg.congestion.min_rate_bps),
                next_release: now,
            }),
        }
        self.stats.limits_installed = self.limits.len() as u64;
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.schedule_in(self.cfg.congestion.increase_interval, KEY_INCREASE_TICK);
        }
        // If our own queue toward the congested router is now rate
        // limited and builds up, maybe_signal_congestion will recursively
        // push the limit further upstream at the next enqueue.
    }

    pub(super) fn on_increase_tick(&mut self, ctx: &mut Context<'_>) {
        let step = self.cfg.congestion.increase_step_bps;
        let mut line_rates: BTreeMap<u8, u64> = BTreeMap::new();
        for l in &self.limits {
            if let Ok(r) = ctx.channel_rate(l.out_port) {
                line_rates.insert(l.out_port, r);
            }
        }
        for l in &mut self.limits {
            l.allowed_bps = l.allowed_bps.saturating_add(step);
        }
        // A limit that has recovered to the line rate dissolves (§2.2:
        // soft state, "it can be discarded").
        self.limits.retain(|l| match line_rates.get(&l.out_port) {
            Some(&line) => l.allowed_bps < line,
            None => true,
        });
        self.stats.limits_installed = self.limits.len() as u64;
        if self.limits.is_empty() {
            self.tick_armed = false;
        } else {
            ctx.schedule_in(self.cfg.congestion.increase_interval, KEY_INCREASE_TICK);
        }
        // Wake all ports (in sorted order, for determinism) in case a
        // release time moved earlier.
        let mut ports: Vec<u8> = self.ports.keys().copied().collect();
        ports.sort_unstable();
        for p in ports {
            self.service_port(ctx, p);
        }
    }
}
