//! The Sirpent host stack: transport endpoint + route management +
//! packet framing, as one simulator node.
//!
//! The host is where the paper's end-to-end machinery converges:
//!
//! * requests are paced onto a **compiled source route** (possibly one of
//!   several alternates managed by the §6.3 failover logic);
//! * replies, acks and retransmission traffic to a peer use the **return
//!   route built from the received packet's trailer** — a server needs no
//!   routing knowledge at all (§2);
//! * rate-control feedback from routers slows the pacer and can trigger
//!   a route switch (§2.2 + §6.3);
//! * everything the transport rejects (misdelivery, staleness,
//!   corruption) is counted for the experiments.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use sirpent_router::link::{decode_port_frame, LinkFrame, PortDecode};
use sirpent_sim::{transmission_time, Context, Event, Node, SimDuration, SimTime};
use sirpent_transport::{Action, Endpoint, EndpointConfig, FailoverPolicy, RouteSet, Verdict};
use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::ethernet;
use sirpent_wire::packet::{PacketBuilder, RouteHeader, Scan};
use sirpent_wire::vmtp::{self, EntityId, Kind};

use crate::compile::CompiledRoute;

/// A host port's link type: the same two link kinds a router port has.
pub use sirpent_router::viper::PortKind as HostPortKind;

/// A message delivered to the application.
#[derive(Debug, Clone)]
pub struct DeliveredMsg {
    /// Arrival time.
    pub at: SimTime,
    /// Sending entity.
    pub peer: EntityId,
    /// Transaction id.
    pub transaction: u32,
    /// Request or response.
    pub kind: Kind,
    /// The message bytes.
    pub message: Vec<u8>,
    /// Whether the packet that completed it arrived truncated.
    pub truncated: bool,
}

/// Host-level happenings the experiments observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// The failover logic switched routes for `dst`.
    RouteSwitched {
        /// Destination entity affected.
        dst: EntityId,
        /// New route index.
        index: usize,
        /// When.
        at: SimTime,
    },
    /// All routes to `dst` look bad; a directory re-query is needed.
    NeedsRequery {
        /// Destination entity affected.
        dst: EntityId,
        /// When.
        at: SimTime,
    },
    /// A request ran out of retries.
    GaveUp {
        /// The failed transaction.
        transaction: u32,
        /// When.
        at: SimTime,
    },
}

impl HostEvent {
    /// What a failover [`Verdict`] on the routes to `dst` at `at` tells
    /// the experiments: nothing when the current route stays.
    fn of_verdict(verdict: Verdict, dst: EntityId, at: SimTime) -> Option<HostEvent> {
        match verdict {
            Verdict::Switched(index) => Some(HostEvent::RouteSwitched { dst, index, at }),
            Verdict::Requery => Some(HostEvent::NeedsRequery { dst, at }),
            Verdict::Stay => None,
        }
    }
}

/// Host counters.
#[derive(Debug, Default)]
pub struct HostStats {
    /// Requests the application queued.
    pub requests_sent: u64,
    /// Responses sent by the auto-responder.
    pub responses_sent: u64,
    /// Sirpent packets whose leading segment was not local — misrouted
    /// to us (E12).
    pub misrouted: u64,
    /// Frames that failed to parse at all.
    pub unparseable: u64,
    /// Rate-control messages received.
    pub backpressure_received: u64,
    /// Truncated packets observed.
    pub truncated_seen: u64,
    /// Packets whose local segment's endpoint selector named a
    /// different intra-host endpoint (§2.2 unified addressing).
    pub wrong_endpoint: u64,
    /// Packets the wire builder refused (route plus payload over the
    /// 1500-byte transmission unit, or a malformed route): nothing was
    /// sent.
    pub build_refused: u64,
    /// Queued requests the transport refused (the message needs more
    /// than 32 group members): the transaction id is spent, nothing was
    /// sent.
    pub message_refused: u64,
    /// Packets with nowhere to go — no route installed toward the
    /// destination, or no reply context for the peer: nothing was sent.
    pub no_route: u64,
}

/// One way out of the host: the link, and the route header every packet
/// sent this way wears. The header is encoded once — at install for a
/// directory route, per received packet for a reply — and `Err` keeps
/// the builder's refusal, which each send over the path then counts.
struct Path {
    header: Result<RouteHeader, sirpent_wire::Error>,
    host_port: u8,
    eth: Option<ethernet::Repr>,
}

/// An installed route: its path, and the routers on it for matching
/// backpressure feedback.
struct InstalledRoute {
    path: Path,
    router_ids: Vec<u32>,
}

impl InstalledRoute {
    /// Run the compiled route through the packet builder's validation
    /// and encoding, once.
    fn new(route: CompiledRoute) -> (InstalledRoute, SimDuration) {
        let header = PacketBuilder::new()
            .route(route.segments)
            .recovery(route.recovery)
            .build_header();
        let installed = InstalledRoute {
            path: Path {
                header,
                host_port: route.host_port,
                eth: route.first_eth,
            },
            router_ids: route.router_ids,
        };
        (installed, route.base_rtt)
    }
}

/// A request awaiting its response. Dropped when the response is
/// delivered; a request the client gave up on keeps it for two retention
/// periods, so a response that still arrives is timed.
struct SendTracker {
    dst: EntityId,
    started: SimTime,
    attempts: u32,
    payload_len: usize,
}

enum Pending {
    Transmit { port: u8, frame: FrameBuf },
    Retransmit { transaction: u32 },
}

/// A queued application request.
pub struct QueuedRequest {
    /// When to send.
    pub at: SimTime,
    /// Destination entity (must have routes installed).
    pub dst: EntityId,
    /// Request payload.
    pub payload: Vec<u8>,
}

const KEY_KICK: u64 = 0;
const MAX_ATTEMPTS: u32 = 5;

/// The Sirpent host node.
pub struct SirpentHost {
    endpoint: Endpoint,
    ports: BTreeMap<u8, HostPortKind>,
    routes: BTreeMap<EntityId, RouteSet<InstalledRoute>>,
    reply_ctx: BTreeMap<EntityId, Path>,
    /// `auto_respond`'s bytes as the one buffer every auto-response is a
    /// window of; rebuilt when the public field has been reassigned.
    response: PacketBuf,
    inflight: BTreeMap<u32, SendTracker>,
    /// Given-up requests' trackers, by when they retire.
    given_up: VecDeque<(SimTime, u32)>,
    pending: BTreeMap<u64, Pending>,
    next_key: u64,
    next_txn: u32,
    /// Requests queued since they were last armed, in queue order.
    app_queue: Vec<QueuedRequest>,
    /// Armed requests in send order: by time, then by queue order.
    /// Sending one frees its slot.
    armed: BTreeMap<(SimTime, u64), QueuedRequest>,
    armed_total: u64,
    failover: FailoverPolicy,
    /// The intra-host endpoint selector this host answers to, matched
    /// against the final local segment's `portInfo` (§2.2: "a Sirpent
    /// header segment can be used to designate the port within a host").
    /// Empty = accept any selector.
    pub endpoint_selector: Vec<u8>,
    /// Respond to each delivered request with this payload (None =
    /// silent sink); `echo` instead mirrors the request back.
    pub auto_respond: Option<Vec<u8>>,
    /// Echo requests back as responses (overrides `auto_respond`).
    pub echo: bool,
    /// Delivered messages, in order.
    pub inbox: Vec<DeliveredMsg>,
    /// Measured request→response round trips.
    pub rtt_samples: Vec<(SimTime, SimDuration)>,
    /// Notable events.
    pub events: Vec<HostEvent>,
    /// Counters.
    pub stats: HostStats,
}

impl SirpentHost {
    /// Create a host with the given transport endpoint and ports.
    pub fn new(endpoint: EndpointConfig, ports: Vec<(u8, HostPortKind)>) -> SirpentHost {
        SirpentHost {
            endpoint: Endpoint::new(endpoint),
            ports: ports.into_iter().collect(),
            routes: BTreeMap::new(),
            reply_ctx: BTreeMap::new(),
            response: PacketBuf::new(),
            inflight: BTreeMap::new(),
            given_up: VecDeque::new(),
            pending: BTreeMap::new(),
            next_key: 1,
            next_txn: 1,
            app_queue: Vec::new(),
            armed: BTreeMap::new(),
            armed_total: 0,
            failover: FailoverPolicy::default(),
            endpoint_selector: Vec::new(),
            auto_respond: None,
            echo: false,
            inbox: Vec::new(),
            rtt_samples: Vec::new(),
            events: Vec::new(),
            stats: HostStats::default(),
        }
    }

    /// Our transport identity.
    pub fn entity(&self) -> EntityId {
        self.endpoint.entity()
    }

    /// Access the transport endpoint (stats, pacer).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Mutable transport access.
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    /// Set the failover policy for subsequently installed route sets.
    pub fn set_failover(&mut self, policy: FailoverPolicy) {
        self.failover = policy;
    }

    /// Install the route alternatives for a destination (from directory
    /// advisories, already compiled).
    pub fn install_routes(&mut self, dst: EntityId, routes: Vec<CompiledRoute>) {
        assert!(!routes.is_empty(), "need at least one route");
        let pairs = routes.into_iter().map(InstalledRoute::new);
        self.routes
            .insert(dst, RouteSet::new(pairs.collect(), self.failover));
    }

    /// Install weighted route alternatives for a destination (from TE
    /// advisories: weight = advertised residual capacity). Each new
    /// transaction is then pinned to a route by the weighted per-flow
    /// hash, spreading flows across the k grants instead of piling onto
    /// the first; failover health still gates which routes are eligible.
    pub fn install_routes_weighted(&mut self, dst: EntityId, routes: Vec<(CompiledRoute, u64)>) {
        assert!(!routes.is_empty(), "need at least one route");
        let triples = routes.into_iter().map(|(r, w)| {
            let (r, rtt) = InstalledRoute::new(r);
            (r, rtt, w)
        });
        self.routes.insert(
            dst,
            RouteSet::new_weighted(triples.collect(), self.failover),
        );
    }

    /// Which route index is currently used toward `dst`.
    pub fn current_route_index(&self, dst: EntityId) -> Option<usize> {
        self.routes.get(&dst).map(|r| r.current_index())
    }

    /// How many weighted per-flow re-selections changed the route
    /// toward `dst` (0 for unweighted sets).
    pub fn route_reselections(&self, dst: EntityId) -> u64 {
        self.routes.get(&dst).map(|r| r.reselections).unwrap_or(0)
    }

    /// Transaction state held and due to retire: requests awaiting a
    /// response with their packet groups, and incoming groups with
    /// members missing. Returns to 0 when every transaction has run its
    /// course — a given-up one two retention periods after the give-up.
    pub fn open_transactions(&self) -> usize {
        self.inflight.len() + self.endpoint.open_groups()
    }

    /// Queue a request for later sending; call [`SirpentHost::start`]
    /// afterwards.
    pub fn queue_request(&mut self, at: SimTime, dst: EntityId, payload: Vec<u8>) {
        self.app_queue.push(QueuedRequest { at, dst, payload });
    }

    /// Arm the host's queued requests (moves them into send order and
    /// kicks the first one's timer). Mirrors `ScriptedHost::start`.
    pub fn start(sim: &mut sirpent_sim::Simulator, me: sirpent_sim::NodeId) {
        let now = sim.now();
        let host = sim.node_mut::<SirpentHost>(me);
        host.arm();
        if let Some(&(at, _)) = host.armed.keys().next() {
            sim.kick(at.max(now), me, KEY_KICK);
        }
    }

    fn schedule(&mut self, ctx: &mut Context<'_>, at: SimTime, p: Pending) {
        let key = self.next_key;
        self.next_key += 1;
        self.pending.insert(key, p);
        ctx.schedule_at(at, key);
    }

    /// Frame one built Sirpent packet for `host_port`'s link and schedule
    /// its transmission.
    fn ship(
        &mut self,
        ctx: &mut Context<'_>,
        at: SimTime,
        packet: PacketBuf,
        host_port: u8,
        eth: Option<ethernet::Repr>,
    ) {
        let lf = LinkFrame::Sirpent { ff_hint: 0, packet };
        let frame = match (self.ports.get(&host_port), eth) {
            (Some(HostPortKind::Ethernet { mac }), Some(h)) => lf.into_ethernet_frame(*mac, h.dst),
            (Some(HostPortKind::Ethernet { mac }), None) => {
                // Shouldn't happen with well-formed routes; broadcast.
                lf.into_ethernet_frame(*mac, ethernet::Address::BROADCAST)
            }
            _ => lf.into_p2p_frame(),
        };
        self.schedule(
            ctx,
            at.max(ctx.now()),
            Pending::Transmit {
                port: host_port,
                frame,
            },
        );
    }

    /// Execute transport actions in the context of a destination (for
    /// forward-routed traffic) or a reply context.
    fn run_actions(
        &mut self,
        ctx: &mut Context<'_>,
        actions: Vec<Action>,
        dst: EntityId,
        use_reply_ctx: bool,
    ) {
        for a in actions {
            match a {
                Action::Transmit {
                    at,
                    header,
                    payload,
                    timestamp,
                } => {
                    // Replies ride the trailer-derived reverse route,
                    // which carries no alternate protection.
                    let path = if use_reply_ctx {
                        self.reply_ctx.get(&dst)
                    } else {
                        self.routes.get(&dst).map(|set| &set.current().path)
                    };
                    let Some(path) = path else {
                        self.stats.no_route += 1;
                        continue;
                    };
                    // One buffer, each byte written once: the stored route
                    // header, then the transport packet serialized in
                    // place behind it.
                    let vmtp = vmtp::Packet {
                        header,
                        payload: &payload,
                        timestamp,
                    };
                    let built = path.header.as_ref().map_err(|e| *e).and_then(|route| {
                        route.packet(vmtp.wire_len(), |data| {
                            vmtp.emit(data)
                                .expect("the endpoint's headers are consistent");
                        })
                    });
                    let (port, eth) = (path.host_port, path.eth);
                    match built {
                        Ok(packet) => self.ship(ctx, at, packet, port, eth),
                        Err(_) => self.stats.build_refused += 1,
                    }
                }
                Action::Deliver {
                    peer,
                    transaction,
                    kind,
                    message,
                } => {
                    self.deliver(ctx, peer, transaction, kind, message, false);
                }
            }
        }
    }

    /// The auto-responder's body as a window of one shared buffer,
    /// which follows reassignment of the public `auto_respond` field.
    fn shared_response(&mut self) -> Option<PacketBuf> {
        let body = self.auto_respond.as_deref()?;
        if self.response.as_slice() != body {
            self.response = PacketBuf::from(body);
        }
        Some(self.response.clone())
    }

    fn deliver(
        &mut self,
        ctx: &mut Context<'_>,
        peer: EntityId,
        transaction: u32,
        kind: Kind,
        message: Vec<u8>,
        truncated: bool,
    ) {
        let now = ctx.now();
        let response = match kind {
            Kind::Request if self.echo => Some(PacketBuf::from(&message[..])),
            Kind::Request => self.shared_response(),
            _ => None,
        };
        self.inbox.push(DeliveredMsg {
            at: now,
            peer,
            transaction,
            kind,
            message,
            truncated,
        });
        match kind {
            Kind::Response => {
                // Request/response RTT sample for failover + stats. The
                // transaction is over: nothing reads its tracker or its
                // request group again (a duplicate response finds neither
                // and stops here, as does the request's pending timer).
                let Some(t) = self.inflight.remove(&transaction) else {
                    return;
                };
                self.endpoint.retire(t.dst, transaction);
                let rtt = now - t.started;
                let dst = t.dst;
                self.rtt_samples.push((now, rtt));
                if let Some(set) = self.routes.get_mut(&dst) {
                    let verdict = set.on_rtt_sample(now, rtt);
                    self.events.extend(HostEvent::of_verdict(verdict, dst, now));
                }
            }
            Kind::Request => {
                if let Some(body) = response {
                    if let Some(actions) =
                        self.endpoint
                            .send_message(now, peer, transaction, Kind::Response, body)
                    {
                        self.stats.responses_sent += 1;
                        self.run_actions(ctx, actions, peer, true);
                    }
                }
            }
            Kind::Ack => {}
        }
    }

    /// Move the requests queued since the last call into `armed`, built
    /// in bulk: one insert per request would cost set-up more.
    fn arm(&mut self) {
        let first = self.armed_total;
        self.armed_total += self.app_queue.len() as u64;
        let queued = std::mem::take(&mut self.app_queue).into_iter();
        let mut batch = queued.zip(first..).map(|(q, n)| ((q.at, n), q)).collect();
        self.armed.append(&mut batch);
    }

    fn send_queued(&mut self, ctx: &mut Context<'_>) {
        if !self.app_queue.is_empty() {
            self.arm();
        }
        while let Some(q) = self.armed.first_entry() {
            if q.key().0 > ctx.now() {
                ctx.schedule_at(q.key().0, KEY_KICK);
                break;
            }
            // The queue entry's `Vec` becomes the request group's buffer.
            let QueuedRequest { dst, payload, .. } = q.remove();
            let txn = self.next_txn;
            self.next_txn += 1;
            let now = ctx.now();
            let payload_len = payload.len();
            let Some(actions) = self
                .endpoint
                .send_message(now, dst, txn, Kind::Request, payload)
            else {
                self.stats.message_refused += 1;
                continue;
            };
            self.stats.requests_sent += 1;
            // TE spreading: pin this transaction's route by the weighted
            // per-flow hash (no-op for unweighted sets).
            if let Some(set) = self.routes.get_mut(&dst) {
                set.select_for_flow(txn as u64);
            }
            self.inflight.insert(
                txn,
                SendTracker {
                    dst,
                    started: now,
                    attempts: 1,
                    payload_len,
                },
            );
            self.run_actions(ctx, actions, dst, false);
            let timeout = self.txn_timeout(dst, payload_len);
            let at = now + timeout;
            self.schedule(ctx, at, Pending::Retransmit { transaction: txn });
        }
    }

    /// Retransmission timeout for a transaction: the failover layer's
    /// RTT-based timeout *plus* the time the pacer needs to clock the
    /// whole group out — a paced multi-packet message must not time out
    /// while it is still legitimately being sent (§4.3's rate-based
    /// intra-group flow control).
    fn txn_timeout(&self, dst: EntityId, payload_len: usize) -> SimDuration {
        let base = self
            .routes
            .get(&dst)
            .map(|s| s.timeout())
            .unwrap_or(SimDuration::from_millis(100));
        let pace = transmission_time(payload_len + 128, self.endpoint.pacer.rate_bps.max(1));
        base + pace
    }

    fn on_retransmit(&mut self, ctx: &mut Context<'_>, txn: u32) {
        let now = ctx.now();
        let Some(t) = self.inflight.get_mut(&txn) else {
            return; // transaction finished
        };
        let dst = t.dst;
        let payload_len = t.payload_len;
        if t.attempts >= MAX_ATTEMPTS {
            self.events.push(HostEvent::GaveUp {
                transaction: txn,
                at: now,
            });
            // No timer follows, so nothing re-sends from the group again.
            // The tracker waits out two retention periods for a late
            // response: past one, the lifetime filter refuses it anyway.
            self.endpoint.retire(dst, txn);
            let retires = now + self.endpoint.retention().times(2);
            self.given_up.push_back((retires, txn));
            return;
        }
        t.attempts += 1;
        // Loss signal to failover (may switch route) and to the pacer.
        if let Some(set) = self.routes.get_mut(&dst) {
            let verdict = set.on_loss(now);
            self.events.extend(HostEvent::of_verdict(verdict, dst, now));
        }
        self.endpoint.pacer.on_loss();
        // Re-pin the transaction's weighted route among the still-healthy
        // alternatives (no-op for unweighted sets, which retransmit on
        // whatever route failover just chose).
        if let Some(set) = self.routes.get_mut(&dst) {
            set.select_for_flow(txn as u64);
        }
        let actions = self.endpoint.on_retransmit_timer(now, dst, txn);
        self.run_actions(ctx, actions, dst, false);
        let timeout = self.txn_timeout(dst, payload_len);
        let at = now + timeout;
        self.schedule(ctx, at, Pending::Retransmit { transaction: txn });
    }

    fn on_sirpent_packet(
        &mut self,
        ctx: &mut Context<'_>,
        packet: PacketBuf,
        arrival_port: u8,
        reply_eth: Option<ethernet::Repr>,
    ) {
        let Ok(scan) = Scan::parse(&packet) else {
            self.stats.unparseable += 1;
            return;
        };
        if scan.route_len != 1 {
            // Misrouted: a corrupted header sent it to the wrong place
            // (E12) — hosts are not routers, drop it.
            self.stats.misrouted += 1;
            return;
        }
        // Intra-host addressing (§2.2): the local segment's portInfo
        // selects the endpoint within this host.
        let selector = &packet[scan.selector];
        if !self.endpoint_selector.is_empty()
            && !selector.is_empty()
            && selector != self.endpoint_selector
        {
            self.stats.wrong_endpoint += 1;
            return;
        }
        if scan.truncated.is_some() {
            self.stats.truncated_seen += 1;
        }
        // Carve the user-data window out of the shared buffer: truncate
        // the trailer off, advance past the route header. Both are O(1)
        // offset moves on the same store — no copy on the delivery path.
        let mut data = packet;
        data.truncate(scan.data.end);
        data.advance(scan.data.start);
        let now = ctx.now();

        // Peek the transport source so reply context can be stored
        // before actions run.
        if let Ok(hdr) = vmtp::Header::parse(&data) {
            self.reply_ctx.insert(
                hdr.src,
                Path {
                    header: scan.reply,
                    host_port: arrival_port,
                    eth: reply_eth,
                },
            );
            let actions = self.endpoint.on_packet(now, &data);
            self.run_actions(ctx, actions, hdr.src, true);
        } else {
            self.stats.unparseable += 1;
        }
    }
}

impl Node for SirpentHost {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        while let Some(&(at, txn)) = self.given_up.front() {
            if at > ctx.now() {
                break;
            }
            self.given_up.pop_front();
            self.inflight.remove(&txn);
        }
        match ev {
            Event::Frame(fe) => {
                let port = fe.port;
                let Some(kind) = self.ports.get(&port) else {
                    return;
                };
                match decode_port_frame(kind, &fe.frame.payload) {
                    Ok(PortDecode::Frame(LinkFrame::Sirpent { packet, .. }, reply_eth)) => {
                        self.on_sirpent_packet(ctx, packet, port, reply_eth)
                    }
                    Ok(PortDecode::Frame(LinkFrame::RateControl(msg), _)) => {
                        self.on_rate_control(ctx, msg)
                    }
                    Ok(_) => {}
                    Err(_) => self.stats.unparseable += 1,
                }
            }
            Event::Timer { key: KEY_KICK } => self.send_queued(ctx),
            Event::Timer { key } => match self.pending.remove(&key) {
                Some(Pending::Transmit { port, frame }) => {
                    let _ = ctx.transmit(port, frame);
                }
                Some(Pending::Retransmit { transaction }) => self.on_retransmit(ctx, transaction),
                None => {}
            },
            Event::TxDone { .. } | Event::FrameAborted { .. } | Event::TxAborted { .. } => {}
        }
    }

    fn publish_telemetry(
        &self,
        reg: &mut sirpent_telemetry::Registry,
    ) -> Result<(), sirpent_telemetry::RegistryError> {
        use sirpent_telemetry::names;
        self.endpoint.pacer.publish_telemetry(reg)?;
        reg.publish_count(names::HOST_BUILD_REFUSED_TOTAL, self.stats.build_refused)?;
        reg.publish_count(
            names::HOST_MESSAGE_REFUSED_TOTAL,
            self.stats.message_refused,
        )?;
        reg.publish_count(names::HOST_NO_ROUTE_TOTAL, self.stats.no_route)?;
        let mut open = sirpent_telemetry::Gauge::new();
        open.set(self.open_transactions() as i64);
        reg.publish_gauge(names::HOST_OPEN_TRANSACTIONS, &open)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl SirpentHost {
    fn on_rate_control(&mut self, ctx: &mut Context<'_>, msg: sirpent_router::RateControlMsg) {
        let now = ctx.now();
        self.stats.backpressure_received += 1;
        self.endpoint.pacer.on_backpressure(msg.allowed_bps);
        // Switch away from routes transiting the congested router.
        for (&dst, set) in self.routes.iter_mut() {
            if !set.current().router_ids.contains(&msg.congested_router) {
                continue;
            }
            let verdict = set.on_backpressure(now);
            self.events.extend(HostEvent::of_verdict(verdict, dst, now));
        }
    }
}
