//! The VMTP-like transport endpoint.
//!
//! Ties together the §4 obligations: 64-bit entity identifiers reject
//! misdelivered packets (§4.1 — Sirpent's checksum-free network may
//! misroute), creation timestamps bound packet lifetime (§4.2), and
//! packet groups with selective retransmission move fragmentation out of
//! the network (§4.3). Transmission is paced by [`crate::rate::RatePacer`]
//! ("rate-based flow control is used between packets within a packet
//! group to avoid overruns").
//!
//! The endpoint is a pure state machine: the owning host node feeds it
//! packets and timer ticks and executes the [`Action`]s it returns
//! (transmissions carry explicit due times for the host to schedule).
//! It also keeps VMTP's server-side transaction record: each response
//! it sends is kept, and a replayed request is answered with it again.
//!
//! That record, and the ids of delivered messages that detect a replay,
//! live one packet lifetime, not forever. Sirpent has no TTL: the
//! receiver's [`LifetimeFilter`] refuses a packet stamped more than the
//! MPL ago or further ahead than clock sync allows (§4.2). So replay
//! state is kept [`Endpoint::retention`] — the filter's two bounds
//! added — after the last packet of its transaction arrived. A copy
//! created before that packet arrived and arriving later still is
//! older than the MPL, or was stamped further ahead than clock sync
//! allows, so the filter refuses it before any lookup. Each peer's
//! state is a log in transaction order, held in two generations that
//! age by one on the endpoint's first call a period after the current
//! one began; nothing is timestamped per entry.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use sirpent_sim::{SimDuration, SimTime};
use sirpent_wire::buf::PacketBuf;
use sirpent_wire::vmtp::{EntityId, Header, Kind, Packet, HEADER_LEN};

use crate::clock::HostClock;
use crate::group::{GroupReceiver, GroupSender};
use crate::lifetime::{LifetimeFilter, LifetimeReject};
use crate::rate::RatePacer;

/// Something the host must do on the endpoint's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Put this VMTP packet on the wire (inside a routed Sirpent packet)
    /// at `at`. It is handed over in parts — the payload still a window
    /// of the sender's message buffer — so the host serializes it
    /// straight into the routed packet ([`Packet::emit`]) and the
    /// payload is copied once.
    Transmit {
        /// Pacer-assigned departure time.
        at: SimTime,
        /// The transport header.
        header: Header,
        /// This group member's share of the message.
        payload: PacketBuf,
        /// Creation timestamp for the packet's trailer.
        timestamp: u32,
    },
    /// A complete message arrived.
    Deliver {
        /// The sending entity.
        peer: EntityId,
        /// Transaction id.
        transaction: u32,
        /// Request or response.
        kind: Kind,
        /// The reassembled message.
        message: Vec<u8>,
    },
}

/// Why incoming packets were rejected.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    /// End-to-end checksum failures (corruption caught here, not in the
    /// network — §4.1).
    pub checksum_rejected: u64,
    /// Structurally unparseable packets.
    pub malformed: u64,
    /// Packets whose 64-bit destination entity wasn't us (§4.1
    /// misdelivery detection).
    pub misdelivered: u64,
    /// Packets the lifetime filter (§4.2) found older than the MPL.
    pub too_old: u64,
    /// Packets the lifetime filter found stamped further ahead than
    /// clock sync allows.
    pub from_future: u64,
    /// Packets the lifetime filter found created before this host booted.
    pub pre_boot: u64,
    /// Duplicate group members / replays.
    pub duplicates: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Data packets retransmitted selectively.
    pub retransmissions: u64,
    /// Acks emitted.
    pub acks_sent: u64,
}

/// Configuration of one endpoint.
pub struct EndpointConfig {
    /// Our 64-bit identity.
    pub entity: EntityId,
    /// Our host clock.
    pub clock: HostClock,
    /// The receive-side lifetime filter.
    pub lifetime: LifetimeFilter,
    /// Payload bytes per group member (chosen from the route MTU —
    /// "roughly 1 kilobyte transport packet", §5).
    pub seg_size: usize,
    /// Sender pacing.
    pub pacer: RatePacer,
}

/// The transport endpoint state machine.
pub struct Endpoint {
    entity: EntityId,
    clock: HostClock,
    lifetime: LifetimeFilter,
    seg_size: usize,
    /// The pacer, public for backpressure/loss feedback wiring.
    pub pacer: RatePacer,
    /// Our requests' groups by `(peer, transaction)` — the pair an
    /// `Ack`'s `(src, transaction)` names. The peer's ack of our
    /// response to its own request with that number names it too.
    outgoing: BTreeMap<(EntityId, u32), GroupSender>,
    incoming: BTreeMap<(EntityId, u32, u8), GroupReceiver>,
    /// Replay state by peer, in two generations: `[0]` holds what was
    /// delivered, sent or replayed since `generation` began, `[1]` what
    /// was before. See [`Endpoint::age_logs`].
    logs: [BTreeMap<EntityId, PeerLog>; 2],
    generation: SimTime,
    /// Counters.
    pub stats: TransportStats,
}

fn kind_tag(k: Kind) -> u8 {
    match k {
        Kind::Request => 1,
        Kind::Response => 2,
        Kind::Ack => 3,
    }
}

/// What replay detection needs of one peer's finished transactions,
/// each list in ascending transaction order. A peer numbers its
/// requests in the order it sends them, so an entry is nearly always
/// appended, and a lookup is a binary search.
#[derive(Default)]
struct PeerLog {
    /// Transactions whose request (`[0]`) or response (`[1]`) was
    /// delivered: a later copy is a replay.
    delivered: [Vec<u32>; 2],
    /// The responses we sent, by the request they answer: a replay of
    /// that request is answered with it again. Transaction ids are
    /// per-requester, so our request 1 to B and our response to B's
    /// request 1 coexist.
    responses: Vec<(u32, PacketBuf)>,
}

impl PeerLog {
    fn len(&self) -> usize {
        self.delivered[0].len() + self.delivered[1].len() + self.responses.len()
    }
}

/// Which of [`PeerLog::delivered`]'s lists records `kind`.
fn slot(kind: Kind) -> usize {
    usize::from(kind == Kind::Response)
}

/// Put `entry` under `txn` into `log`, which stays in ascending
/// transaction order; an entry already under `txn` is replaced.
fn upsert<T>(log: &mut Vec<T>, txn: u32, entry: T, id: fn(&T) -> u32) {
    match log.binary_search_by_key(&txn, id) {
        Ok(i) => log[i] = entry,
        Err(i) => log.insert(i, entry),
    }
    debug_assert!(log.windows(2).all(|w| id(&w[0]) < id(&w[1])));
}

/// Take the entry under `txn` out of `log`.
fn take<T>(log: &mut Vec<T>, txn: u32, id: fn(&T) -> u32) -> Option<T> {
    let i = log.binary_search_by_key(&txn, id).ok()?;
    Some(log.remove(i))
}

impl Endpoint {
    /// Create an endpoint.
    pub fn new(cfg: EndpointConfig) -> Endpoint {
        assert!(cfg.seg_size > 0);
        Endpoint {
            entity: cfg.entity,
            clock: cfg.clock,
            lifetime: cfg.lifetime,
            seg_size: cfg.seg_size,
            pacer: cfg.pacer,
            outgoing: BTreeMap::new(),
            incoming: BTreeMap::new(),
            logs: Default::default(),
            generation: SimTime::ZERO,
            stats: TransportStats::default(),
        }
    }

    /// Our identity.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// Mutable access to the clock (sync service integration).
    pub fn clock_mut(&mut self) -> &mut HostClock {
        &mut self.clock
    }

    /// How long replay state is kept after the last packet of its
    /// transaction: the oldest a packet the lifetime filter accepts can
    /// be, plus how far ahead of our clock it may be stamped.
    pub fn retention(&self) -> SimDuration {
        let ms = u64::from(self.lifetime.max_age_ms) + u64::from(self.lifetime.max_future_ms);
        SimDuration::from_millis(ms)
    }

    /// Replay entries held: delivered transaction ids and kept
    /// responses, over every peer and both generations.
    pub fn replay_entries(&self) -> usize {
        self.logs
            .iter()
            .flat_map(|g| g.values())
            .map(PeerLog::len)
            .sum()
    }

    /// Age the replay logs to `now`, lazily: once a retention period has
    /// passed since the current generation began, it becomes the old one
    /// and the old one is dropped — both, once two periods have. An
    /// entry thus lives between one and two periods after it was last
    /// touched.
    fn age_logs(&mut self, now: SimTime) {
        let (period, elapsed) = (self.retention(), now - self.generation);
        if elapsed < period {
            return;
        }
        let [current, old] = &mut self.logs;
        *old = std::mem::take(current);
        if elapsed < period.times(2) {
            self.generation += period;
        } else {
            old.clear();
            self.generation = now;
        }
    }

    /// Move what the old generation holds of `peer`'s transaction `txn`
    /// — its delivery in `slot`, and for a request the response kept for
    /// it — into the current one, so it lives a full period from now.
    fn refresh(&mut self, peer: EntityId, txn: u32, slot: usize) {
        let [current, old] = &mut self.logs;
        let Some(log) = old.get_mut(&peer) else {
            return;
        };
        let delivered = take(&mut log.delivered[slot], txn, |&t| t);
        let response = match slot {
            0 => take(&mut log.responses, txn, |r| r.0),
            _ => None,
        };
        if delivered.is_none() && response.is_none() {
            return;
        }
        let log = current.entry(peer).or_default();
        if delivered.is_some() {
            upsert(&mut log.delivered[slot], txn, txn, |&t| t);
        }
        if let Some(r) = response {
            upsert(&mut log.responses, txn, r, |r| r.0);
        }
    }

    /// Whether `peer`'s `kind` of `txn` was delivered already, and if so
    /// the response we keep for it (a request's only).
    fn recall(&mut self, peer: EntityId, txn: u32, kind: Kind) -> Option<Option<PacketBuf>> {
        let slot = slot(kind);
        self.refresh(peer, txn, slot);
        let log = self.logs[0].get(&peer)?;
        log.delivered[slot].binary_search(&txn).ok()?;
        let kept = match kind {
            Kind::Request => log.responses.binary_search_by_key(&txn, |r| r.0),
            _ => return Some(None),
        };
        Some(kept.ok().map(|i| log.responses[i].1.clone()))
    }

    /// A `Transmit` for member `index` of `group`, paced from `now`.
    fn member(
        &mut self,
        now: SimTime,
        dst: EntityId,
        transaction: u32,
        kind: Kind,
        group: &GroupSender,
        index: usize,
    ) -> Action {
        let payload = group.window(index);
        let at = self.pacer.schedule(now, payload.len() + 50);
        Action::Transmit {
            at,
            header: Header {
                src: self.entity,
                dst,
                transaction,
                kind,
                group_size: group.group_size() as u8,
                group_index: index as u8,
                delivery_mask: 0,
                message_len: group.message_len() as u32,
                payload_len: payload.len() as u16,
            },
            payload,
            timestamp: self.clock.now_ms(at),
        }
    }

    /// Send a message as one packet group. `data` becomes the group's
    /// buffer — a `Vec` or [`PacketBuf`] is adopted, not copied — and
    /// every member, first send or retransmission, is a window of it.
    /// Returns paced `Transmit` actions for every member.
    /// Fails (None) when the message exceeds 32 segments — split across
    /// transactions above.
    ///
    /// A request's group is kept for its retransmission timer. A
    /// response is never timed: it is kept only to answer a replay of
    /// the request, which is how a client recovers a lost response.
    pub fn send_message(
        &mut self,
        now: SimTime,
        dst: EntityId,
        transaction: u32,
        kind: Kind,
        data: impl Into<PacketBuf>,
    ) -> Option<Vec<Action>> {
        self.age_logs(now);
        let body = data.into();
        let group = GroupSender::split(body.clone(), self.seg_size)?;
        let actions = (0..group.group_size())
            .map(|i| self.member(now, dst, transaction, kind, &group, i))
            .collect();
        if kind == Kind::Response {
            self.refresh(dst, transaction, slot(Kind::Request));
            let log = &mut self.logs[0].entry(dst).or_default().responses;
            upsert(log, transaction, (transaction, body), |r| r.0);
        } else {
            self.outgoing.insert((dst, transaction), group);
        }
        Some(actions)
    }

    /// Which members of `transaction` to `dst` remain unacknowledged.
    pub fn unacked(&self, dst: EntityId, transaction: u32) -> Option<Vec<usize>> {
        Some(self.outgoing.get(&(dst, transaction))?.missing())
    }

    /// A retransmission timer fired for `transaction` to `dst`: resend
    /// every unacknowledged member (selective, §4.3). A fully
    /// acknowledged request whose response has not come re-sends its
    /// last member as a **probe**: the server deduplicates it, re-acks
    /// and re-sends its kept response. Each member counts as a
    /// retransmission.
    pub fn on_retransmit_timer(
        &mut self,
        now: SimTime,
        dst: EntityId,
        transaction: u32,
    ) -> Vec<Action> {
        let Some(group) = self.outgoing.get(&(dst, transaction)) else {
            return Vec::new();
        };
        let members = if group.complete() {
            vec![group.group_size() - 1]
        } else {
            group.missing()
        };
        // A handle on the shared message, so `member` can borrow the
        // pacer and clock.
        let group = group.clone();
        self.stats.retransmissions += members.len() as u64;
        members
            .into_iter()
            .map(|i| self.member(now, dst, transaction, Kind::Request, &group, i))
            .collect()
    }

    /// Forget the request group sent to `(dst, transaction)`. The owner
    /// calls this once no later protocol step needs the group: with it
    /// gone, an ack or a retransmission timer for the pair yields no
    /// action.
    pub fn retire(&mut self, dst: EntityId, transaction: u32) {
        self.outgoing.remove(&(dst, transaction));
    }

    /// Packet groups in progress: requests sent and not yet retired, or
    /// groups arriving with members still missing.
    pub fn open_groups(&self) -> usize {
        self.outgoing.len() + self.incoming.len()
    }

    fn make_ack(
        &mut self,
        now: SimTime,
        peer: EntityId,
        transaction: u32,
        group_size: u8,
        mask: u32,
    ) -> Action {
        self.stats.acks_sent += 1;
        Action::Transmit {
            at: now, // acks are not paced: they are small and urgent
            header: Header {
                src: self.entity,
                dst: peer,
                transaction,
                kind: Kind::Ack,
                group_size,
                group_index: 0,
                delivery_mask: mask,
                message_len: 0,
                payload_len: 0,
            },
            payload: PacketBuf::new(),
            timestamp: self.clock.now_ms(now),
        }
    }

    /// Process one arriving VMTP packet (already unwrapped from its
    /// Sirpent packet by the host: `bytes` is the user-data window of
    /// the received buffer). The parse borrows it, and a group member
    /// waiting for the rest of its group is kept as a sub-window, so the
    /// payload is copied once — into the delivered message.
    pub fn on_packet(&mut self, now: SimTime, bytes: &PacketBuf) -> Vec<Action> {
        self.age_logs(now);
        let pkt = match Packet::parse(bytes) {
            Ok(p) => p,
            Err(sirpent_wire::Error::Checksum) => {
                self.stats.checksum_rejected += 1;
                return Vec::new();
            }
            Err(_) => {
                self.stats.malformed += 1;
                return Vec::new();
            }
        };
        // §4.1: the 64-bit entity id is the sole delivery check.
        if pkt.header.dst != self.entity {
            self.stats.misdelivered += 1;
            return Vec::new();
        }
        // §4.2: lifetime enforcement from the creation timestamp.
        let local_now = self.clock.now_ms(now);
        if let Err(why) = self.lifetime.accept(local_now, pkt.timestamp) {
            *match why {
                LifetimeReject::TooOld => &mut self.stats.too_old,
                LifetimeReject::FromFuture => &mut self.stats.from_future,
                LifetimeReject::PreBoot => &mut self.stats.pre_boot,
            } += 1;
            return Vec::new();
        }

        match pkt.header.kind {
            Kind::Ack => {
                let key = (pkt.header.src, pkt.header.transaction);
                if let Some(group) = self.outgoing.get_mut(&key) {
                    group.on_ack(pkt.header.delivery_mask);
                }
                Vec::new()
            }
            kind @ (Kind::Request | Kind::Response) => {
                let peer = pkt.header.src;
                let txn = pkt.header.transaction;
                let key = (peer, txn, kind_tag(kind));
                if let Some(response) = self.recall(peer, txn, kind) {
                    // Replay of a finished message: re-ack, don't
                    // re-deliver. A replayed request means the peer
                    // lacks our response, so that goes again too.
                    self.stats.duplicates += 1;
                    let full = GroupSender::full_mask(pkt.header.group_size as usize);
                    let mut acts = vec![self.make_ack(now, peer, txn, pkt.header.group_size, full)];
                    if let Some(body) = response {
                        let resent = self.send_message(now, peer, txn, Kind::Response, body);
                        acts.extend(resent.into_iter().flatten());
                    }
                    return acts;
                }
                let (completed, mask) = match self.incoming.entry(key) {
                    // A single-member group with nothing assembling *is*
                    // its payload.
                    Entry::Vacant(_) if pkt.header.group_size == 1 => {
                        let len = pkt.payload.len().min(pkt.header.message_len as usize);
                        (Some(pkt.payload[..len].to_vec()), 1)
                    }
                    entry => {
                        let recv = entry.or_insert_with(|| {
                            GroupReceiver::new(
                                pkt.header.group_size as usize,
                                pkt.header.message_len as usize,
                            )
                        });
                        let mut member = bytes.clone();
                        member.truncate(HEADER_LEN + pkt.payload.len());
                        member.advance(HEADER_LEN);
                        let before = recv.duplicates;
                        let completed = recv.push(pkt.header.group_index as usize, member);
                        self.stats.duplicates += (recv.duplicates - before) as u64;
                        (completed, recv.delivery_mask())
                    }
                };

                // At most an ack and a delivery.
                let mut actions = Vec::with_capacity(2);
                match completed {
                    Some(message) => {
                        self.incoming.remove(&key);
                        let log = &mut self.logs[0].entry(peer).or_default().delivered;
                        upsert(&mut log[slot(kind)], txn, txn, |&t| t);
                        self.stats.delivered += 1;
                        actions.push(self.make_ack(now, peer, txn, pkt.header.group_size, mask));
                        actions.push(Action::Deliver {
                            peer,
                            transaction: txn,
                            kind,
                            message,
                        });
                    }
                    None => {
                        // Ack on the last member even when incomplete —
                        // this is what triggers selective retransmission.
                        if pkt.header.group_index + 1 == pkt.header.group_size {
                            actions.push(self.make_ack(
                                now,
                                peer,
                                txn,
                                pkt.header.group_size,
                                mask,
                            ));
                        }
                    }
                }
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirpent_sim::SimDuration;

    pub(super) fn endpoint(id: u64) -> Endpoint {
        Endpoint::new(EndpointConfig {
            entity: EntityId(id),
            clock: HostClock::perfect(1_000_000),
            lifetime: LifetimeFilter::steady(60_000, 5_000),
            seg_size: 512,
            pacer: RatePacer::new(8_000_000, 100_000, 8_000_000),
        })
    }

    /// What the host puts inside the routed packet for a `Transmit`.
    pub(super) fn wire(a: &Action) -> PacketBuf {
        let Action::Transmit {
            header,
            payload,
            timestamp,
            ..
        } = a
        else {
            panic!("not a Transmit: {a:?}")
        };
        let packet = Packet {
            header: *header,
            payload,
            timestamp: *timestamp,
        };
        packet.to_bytes().unwrap().into()
    }

    /// Carry every Transmit action from one endpoint into the other,
    /// returning non-transmit actions produced on both sides.
    fn exchange(
        from: &mut Endpoint,
        to: &mut Endpoint,
        actions: Vec<Action>,
        now: SimTime,
        drop: &dyn Fn(usize) -> bool,
    ) -> (Vec<Action>, Vec<Action>) {
        let mut to_side = Vec::new();
        let mut back_side = Vec::new();
        let mut replies = Vec::new();
        for (i, a) in actions.into_iter().enumerate() {
            if matches!(a, Action::Transmit { .. }) {
                if drop(i) {
                    continue;
                }
                let out = to.on_packet(now, &wire(&a));
                for r in out {
                    match r {
                        Action::Transmit { .. } => replies.push(wire(&r)),
                        other => to_side.push(other),
                    }
                }
            }
        }
        for bytes in replies {
            for r in from.on_packet(now, &bytes) {
                match r {
                    Action::Transmit { .. } => {}
                    other => back_side.push(other),
                }
            }
        }
        (to_side, back_side)
    }

    #[test]
    fn single_packet_message_roundtrip() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 7, Kind::Request, b"hello")
            .unwrap();
        assert_eq!(acts.len(), 1);
        let (delivered, complete) = exchange(&mut a, &mut b, acts, SimTime(1000), &|_| false);
        assert_eq!(
            delivered,
            vec![Action::Deliver {
                peer: EntityId(1),
                transaction: 7,
                kind: Kind::Request,
                message: b"hello".to_vec(),
            }]
        );
        assert!(complete.is_empty(), "an ack yields no action: {complete:?}");
        assert!(a.unacked(EntityId(2), 7).unwrap().is_empty());
        assert_eq!(b.stats.delivered, 1);
    }

    #[test]
    fn group_is_paced() {
        let mut a = endpoint(1);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, &[0u8; 2048])
            .unwrap();
        assert_eq!(acts.len(), 4, "2048/512 = 4 members");
        let times: Vec<SimTime> = acts
            .iter()
            .map(|a| match a {
                Action::Transmit { at, .. } => *at,
                _ => panic!(),
            })
            .collect();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            // 562 bytes at 8 Mb/s = 562 µs.
            assert_eq!(gap, SimDuration::from_micros(562));
        }
    }

    #[test]
    fn selective_retransmission_recovers_losses() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let msg: Vec<u8> = (0..1500u32).map(|i| i as u8).collect();
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 9, Kind::Request, &msg[..])
            .unwrap();
        assert_eq!(acts.len(), 3);
        // Drop the middle member.
        let (delivered, _) = exchange(&mut a, &mut b, acts, SimTime(1000), &|i| i == 1);
        assert!(delivered.is_empty(), "incomplete without member 1");
        // The ack on the final member told A exactly what's missing.
        assert_eq!(a.unacked(EntityId(2), 9).unwrap(), vec![1]);
        // Retransmit: only one packet goes out.
        let re = a.on_retransmit_timer(SimTime(2000), EntityId(2), 9);
        assert_eq!(re.len(), 1);
        assert_eq!(a.stats.retransmissions, 1);
        let (delivered, complete) = exchange(&mut a, &mut b, re, SimTime(3000), &|_| false);
        match &delivered[..] {
            [Action::Deliver { message, .. }] => assert_eq!(message, &msg),
            other => panic!("unexpected {other:?}"),
        }
        assert!(complete.is_empty(), "an ack yields no action: {complete:?}");
        assert!(a.unacked(EntityId(2), 9).unwrap().is_empty());
    }

    /// Transaction ids are per-requester: our request 1 to B and our
    /// response to C's request 1 are distinct sends, and losing the
    /// first copy of both must not let one shadow the other. The
    /// request retransmits from its own group; the response, never
    /// timed, comes back through C's replay.
    #[test]
    fn same_transaction_id_to_two_peers_retransmits_each_to_its_own() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let mut c = endpoint(3);
        let ask = c
            .send_message(SimTime::ZERO, EntityId(1), 1, Kind::Request, b"from-c")
            .unwrap();
        let (served, _) = exchange(&mut c, &mut a, ask, SimTime(1000), &|_| false);
        assert_eq!(served.len(), 1, "A delivers C's request: {served:?}");
        // Both first copies are lost: nothing is delivered anywhere.
        a.send_message(SimTime(1000), EntityId(3), 1, Kind::Response, b"to-c")
            .unwrap();
        a.send_message(SimTime(1000), EntityId(2), 1, Kind::Request, b"to-b")
            .unwrap();
        assert_eq!(a.unacked(EntityId(3), 1), None, "a response is not timed");
        assert_eq!(a.unacked(EntityId(2), 1).unwrap(), vec![0]);

        let re = a.on_retransmit_timer(SimTime(2000), EntityId(2), 1);
        assert_eq!(re.len(), 1);
        let (delivered, _) = exchange(&mut a, &mut b, re, SimTime(3000), &|_| false);
        assert_eq!(
            delivered,
            vec![Action::Deliver {
                peer: EntityId(1),
                transaction: 1,
                kind: Kind::Request,
                message: b"to-b".to_vec(),
            }]
        );
        // C's request is acknowledged, so its timer probes, and A answers
        // the replay with the response it kept.
        let probe = c.on_retransmit_timer(SimTime(2000), EntityId(1), 1);
        assert_eq!(probe.len(), 1);
        let (at_a, at_c) = exchange(&mut c, &mut a, probe, SimTime(3000), &|_| false);
        assert!(at_a.is_empty(), "a replay is not re-delivered: {at_a:?}");
        assert_eq!(
            at_c,
            vec![Action::Deliver {
                peer: EntityId(1),
                transaction: 1,
                kind: Kind::Response,
                message: b"to-c".to_vec(),
            }]
        );
        assert_eq!(a.stats.retransmissions, 1, "the request alone");
    }

    #[test]
    fn misdelivered_packet_rejected_by_entity_id() {
        let mut a = endpoint(1);
        let mut c = endpoint(3); // not the addressee
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, b"x")
            .unwrap();
        let bytes = &wire(&acts[0]);
        assert!(c.on_packet(SimTime(1), bytes).is_empty());
        assert_eq!(c.stats.misdelivered, 1, "§4.1 misdelivery detection");
    }

    #[test]
    fn corrupted_packet_rejected_by_checksum() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, b"data!")
            .unwrap();
        let bytes = &wire(&acts[0]);
        let mut corrupt = bytes.to_vec();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        assert!(b.on_packet(SimTime(1), &corrupt.into()).is_empty());
        assert!(b.stats.checksum_rejected + b.stats.malformed >= 1);
    }

    /// Each of the lifetime filter's three verdicts lands in its own
    /// counter.
    #[test]
    fn stale_packet_rejected_by_lifetime() {
        let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        b.lifetime.boot_time_ms = b.clock.now_ms(secs(100));
        let mut stamped = |at, txn| {
            let acts = a
                .send_message(at, EntityId(2), txn, Kind::Request, b"t")
                .unwrap();
            wire(&acts[0])
        };
        let old = stamped(secs(0), 1);
        let pre_boot = stamped(secs(90), 2);
        let future = stamped(secs(300), 3);
        // 200 s old against a 60 s MPL.
        assert!(b.on_packet(secs(200), &old).is_empty());
        // 20 s old, inside the MPL, but 10 s after boot.
        assert!(b.on_packet(secs(110), &pre_boot).is_empty());
        // 100 s ahead against a 5 s sync residual.
        assert!(b.on_packet(secs(200), &future).is_empty());
        let s = &b.stats;
        assert_eq!((s.too_old, s.pre_boot, s.from_future), (1, 1, 1));
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn replayed_message_reacked_not_redelivered() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 4, Kind::Request, b"once")
            .unwrap();
        let bytes = &wire(&acts[0]);
        let first = b.on_packet(SimTime(1), bytes);
        assert!(first.iter().any(|x| matches!(x, Action::Deliver { .. })));
        // Replay (e.g. a duplicate in the network). B sent no response,
        // as a silent sink would not, so the re-ack is all it sends.
        let again = b.on_packet(SimTime(2), bytes);
        match &again[..] {
            [Action::Transmit { header, .. }] => assert_eq!(header.kind, Kind::Ack),
            other => panic!("expected only the re-ack: {other:?}"),
        }
        assert_eq!(b.stats.delivered, 1);
        assert_eq!(b.stats.duplicates, 1);
    }

    /// VMTP's server-side transaction record: a replayed request is
    /// re-acked and answered with every member of the kept response.
    #[test]
    fn replayed_request_is_answered_with_the_kept_response() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let ask = a
            .send_message(SimTime::ZERO, EntityId(2), 4, Kind::Request, b"ask")
            .unwrap();
        let bytes = &wire(&ask[0]);
        let first = b.on_packet(SimTime(1), bytes);
        assert!(first.iter().any(|x| matches!(x, Action::Deliver { .. })));
        let body: Vec<u8> = (0..1200u32).map(|i| i as u8).collect();
        let response = b
            .send_message(SimTime(2), EntityId(1), 4, Kind::Response, &body[..])
            .unwrap();
        assert_eq!(response.len(), 3);
        assert_eq!(b.open_groups(), 0, "a response is never tracked");

        let again = b.on_packet(SimTime(3), bytes);
        let [Action::Transmit { header: ack, .. }, members @ ..] = &again[..] else {
            panic!("expected the re-ack first: {again:?}")
        };
        assert_eq!(ack.kind, Kind::Ack);
        assert_eq!(members.len(), response.len());
        for (old, new) in response.iter().zip(members) {
            let (
                Action::Transmit {
                    header: h0,
                    payload: p0,
                    ..
                },
                Action::Transmit {
                    header: h1,
                    payload: p1,
                    ..
                },
            ) = (old, new)
            else {
                panic!("not Transmits: {old:?} / {new:?}")
            };
            assert_eq!((h1, p1), (h0, p0), "the same member, byte for byte");
        }
        assert_eq!(
            b.stats.retransmissions, 0,
            "a re-send, not a retransmission"
        );
    }

    #[test]
    fn oversized_message_refused() {
        let mut a = endpoint(1);
        assert!(a
            .send_message(
                SimTime::ZERO,
                EntityId(2),
                1,
                Kind::Request,
                vec![0u8; 512 * 33],
            )
            .is_none());
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeSet;

    use super::tests::{endpoint, wire};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The per-peer logs answer "already delivered?" and "which kept
        /// response?" as sets that never forget would, for every packet
        /// the lifetime filter lets through: in-order, out-of-order and
        /// repeated ids of both kinds from three peers, byte-for-byte
        /// replays of earlier packets, responses to delivered requests
        /// kept and replaced, and time running across many retention
        /// periods. Each op is `(what, peer, transaction, step)`.
        #[test]
        fn logs_answer_as_sets_that_never_forget(
            ops in proptest::collection::vec((0u8..10, 0u8..3, 0u32..40, 0u64..8), 1..300),
        ) {
            let mut b = endpoint(2);
            b.lifetime = LifetimeFilter::steady(20, 5);
            let mut peers: Vec<Endpoint> = (10..13).map(endpoint).collect();
            let mut delivered = BTreeSet::new();
            let mut kept: BTreeMap<(u8, u32), Vec<u8>> = BTreeMap::new();
            let mut sent: BTreeMap<(u8, u32, u8), PacketBuf> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for (i, (what, p, txn, step)) in ops.into_iter().enumerate() {
                let peer = EntityId(10 + u64::from(p));
                match what {
                    0..=5 => {
                        let kind = if what % 2 == 0 { Kind::Request } else { Kind::Response };
                        let key = (p, txn, kind_tag(kind));
                        let body = vec![p, txn as u8, key.2];
                        let bytes = sent.entry(key).or_insert_with(|| {
                            let acts = peers[p as usize]
                                .send_message(now, EntityId(2), txn, kind, body.clone())
                                .unwrap();
                            wire(&acts[0])
                        });
                        let too_old = b.stats.too_old;
                        let out = b.on_packet(now, bytes);
                        if b.stats.too_old > too_old {
                            prop_assert!(out.is_empty());
                            continue;
                        }
                        let Some((Action::Transmit { header, .. }, rest)) = out.split_first() else {
                            panic!("no ack: {out:?}")
                        };
                        prop_assert_eq!(header.kind, Kind::Ack);
                        if delivered.insert(key) {
                            let deliver = Action::Deliver { peer, transaction: txn, kind, message: body };
                            prop_assert_eq!(rest, &[deliver][..]);
                            continue;
                        }
                        let mut resent = Vec::new();
                        for a in rest {
                            let Action::Transmit { header, payload, .. } = a else {
                                panic!("a replay is re-delivered: {a:?}")
                            };
                            prop_assert_eq!(header.kind, Kind::Response);
                            resent.extend_from_slice(payload);
                        }
                        let expected = match kind {
                            Kind::Request => kept.get(&(p, txn)).cloned().unwrap_or_default(),
                            _ => Vec::new(),
                        };
                        prop_assert_eq!(resent, expected);
                    }
                    // A server answers a request it has delivered.
                    6 | 7 if delivered.contains(&(p, txn, kind_tag(Kind::Request))) => {
                        let body = vec![i as u8; 1 + i % 700];
                        b.send_message(now, peer, txn, Kind::Response, body.clone()).unwrap();
                        kept.insert((p, txn), body);
                    }
                    6 | 7 => {}
                    _ => now += SimDuration::from_millis(2 * step),
                }
            }
        }
    }
}
