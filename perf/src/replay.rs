//! Per-layer replays: inputs captured from a built workload (routes,
//! token sequences, scheduling leads) are fed to each layer's public
//! functions in a tight loop to get ns/op. Multiplied by the counts the
//! untraced run scraped, these give each layer's estimated share of
//! `router.busy_s`.

use std::hint::black_box;
use std::time::Instant;

use sirpent::compile::CompiledRoute;
use sirpent::directory::te::TeQuery;
use sirpent::directory::{Advisory, Peer, TeTopology};
use sirpent::sim::queue::{CalendarQueue, EventQueue, Key, Keyed};
use sirpent::token::{AuthPolicy, Grant, SealingKey, TokenCache, TokenMinter};
use sirpent::wire::buf::PacketBuf;
use sirpent::wire::packet::{append_return_hop_buf, strip_front_segment_buf, PacketBuilder};
use sirpent::wire::trailer::Trailer;
use sirpent::wire::viper::{Flags, Priority, SegmentRepr, PORT_LOCAL};

use crate::fixture::TOKEN_MASTER;
use crate::rng::Rng;
use crate::stats::{highest_supported_percentile, percentile};

/// Host time one replay loop should take: long enough that `Instant`
/// granularity vanishes, short enough that a dozen replays fit a run.
const TARGET_NS: u64 = 60_000_000;

/// Time `body` over enough rounds to fill [`TARGET_NS`]; returns ns per
/// op, where one round performs `ops_per_round` ops. `prepare` rebuilds
/// the round's input outside the timed region.
fn time_rounds<I>(
    ops_per_round: usize,
    mut prepare: impl FnMut() -> I,
    mut body: impl FnMut(I),
) -> f64 {
    if ops_per_round == 0 {
        return 0.0;
    }
    let (mut spent, mut ops) = (0u64, 0u64);
    while spent < TARGET_NS {
        let input = prepare();
        let t0 = Instant::now();
        body(input);
        spent += t0.elapsed().as_nanos() as u64;
        ops += ops_per_round as u64;
    }
    spent as f64 / ops as f64
}

/// ns/op of the wire layer's per-packet functions.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireCosts {
    /// `PacketBuilder::build_buf`, per packet.
    pub build_ns: f64,
    /// `strip_front_segment_buf`, per segment.
    pub strip_ns: f64,
    /// `append_return_hop_buf`, per hop.
    pub append_ns: f64,
    /// `Trailer::parse` + `return_route`, per delivered packet.
    pub trailer_parse_ns: f64,
    /// Mean packet bits as built (for the break-even link rate).
    pub packet_bits: f64,
}

fn build(route: &CompiledRoute, payload: &[u8]) -> PacketBuf {
    PacketBuilder::new()
        .route(route.segments.clone())
        .recovery(route.recovery.clone())
        .payload(payload.to_vec())
        .build_buf()
        .expect("an installed route builds")
}

/// The return hop a router appends for a stripped segment: arrival
/// port, same link token, RPF set (what `ViperRouter` stamps).
fn return_hop(seg: &SegmentRepr) -> SegmentRepr {
    SegmentRepr {
        port: seg.port,
        flags: Flags {
            rpf: true,
            ..Flags::default()
        },
        priority: seg.priority,
        port_token: seg.port_token.clone(),
        port_info: Vec::new(),
        alt: None,
    }
}

/// Replay the wire functions over `routes` carrying `payload_len`-byte
/// transport payloads.
pub fn wire(routes: &[CompiledRoute], payload_len: usize) -> WireCosts {
    if routes.is_empty() {
        return WireCosts::default();
    }
    // Transport header and payload, as the host would hand them down.
    let payload = vec![0x5A; payload_len + 40];
    let build_ns = time_rounds(
        routes.len(),
        || (),
        |()| {
            for r in routes {
                black_box(build(black_box(r), &payload));
            }
        },
    );
    let fresh = || {
        routes
            .iter()
            .map(|r| build(r, &payload))
            .collect::<Vec<_>>()
    };
    let packet_bits =
        fresh().iter().map(PacketBuf::len).sum::<usize>() as f64 * 8.0 / routes.len() as f64;

    // One strip and one append per packet per round, on uniquely owned
    // buffers — the router's steady per-hop state.
    let hops: Vec<SegmentRepr> = routes.iter().map(|r| return_hop(&r.segments[0])).collect();
    let strip_ns = time_rounds(routes.len(), fresh, |mut pkts| {
        for p in &mut pkts {
            black_box(strip_front_segment_buf(p).expect("built packets strip"));
        }
    });
    let append_ns = time_rounds(
        routes.len(),
        || {
            let mut pkts = fresh();
            for p in &mut pkts {
                strip_front_segment_buf(p).expect("built packets strip");
            }
            (pkts, hops.clone())
        },
        |(mut pkts, hops)| {
            for (p, h) in pkts.iter_mut().zip(hops) {
                append_return_hop_buf(p, h).expect("reserved trailer room");
            }
            black_box(pkts);
        },
    );

    // Walk every packet down its whole route so the trailer is as the
    // destination host sees it, then time the receiver's parse.
    let delivered: Vec<PacketBuf> = routes
        .iter()
        .map(|r| {
            let mut p = build(r, &payload);
            for seg in r.segments.iter().filter(|s| s.port != PORT_LOCAL) {
                strip_front_segment_buf(&mut p).expect("built packets strip");
                append_return_hop_buf(&mut p, return_hop(seg)).expect("reserved trailer room");
            }
            p
        })
        .collect();
    let trailer_parse_ns = time_rounds(
        delivered.len(),
        || (),
        |()| {
            for p in &delivered {
                let t = Trailer::parse(black_box(p.as_slice())).expect("walked trailer parses");
                black_box(t.return_route());
            }
        },
    );
    WireCosts {
        build_ns,
        strip_ns,
        append_ns,
        trailer_parse_ns,
        packet_bits,
    }
}

/// ns/op of the token layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct TokenCosts {
    /// `TokenCache::check` on a cached token.
    pub check_hit_ns: f64,
    /// `TokenCache::check` on a token seen for the first time.
    pub check_miss_ns: f64,
    /// `TokenMinter::mint`.
    pub mint_ns: f64,
}

/// Replay the token functions. `captured` is the busiest router's
/// `(id, port, sealed tokens)`; without one (token-less workloads) only
/// minting is timed, against a stand-in router.
pub fn token(captured: Option<&(u32, u8, Vec<Vec<u8>>)>, packet_bytes: usize) -> TokenCosts {
    let mut minter = TokenMinter::new(TOKEN_MASTER, 1);
    let grant = Grant {
        router_id: 7,
        port: 2,
        max_priority: Priority::HIGHEST,
        reverse_ok: true,
        account: 1,
        byte_limit: 0,
        expiry_s: 0,
    };
    let mint_ns = time_rounds(
        256,
        || (),
        |()| {
            for _ in 0..256 {
                black_box(minter.mint(black_box(grant)));
            }
        },
    );
    let Some((router, port, tokens)) = captured else {
        return TokenCosts {
            mint_ns,
            ..TokenCosts::default()
        };
    };
    let fresh = || {
        TokenCache::new(
            SealingKey::derive(TOKEN_MASTER, *router),
            *router,
            AuthPolicy::Blocking,
        )
    };
    let check_all = |cache: &mut TokenCache| {
        for t in tokens {
            black_box(cache.check(t, *port, None, Priority::NORMAL, packet_bytes, 0));
        }
    };
    let check_miss_ns = time_rounds(tokens.len(), fresh, |mut cache| check_all(&mut cache));
    let mut warm = fresh();
    check_all(&mut warm);
    let check_hit_ns = time_rounds(tokens.len(), || (), |()| check_all(&mut warm));
    TokenCosts {
        check_hit_ns,
        check_miss_ns,
        mint_ns,
    }
}

struct Pending(u64, u64);

impl Keyed for Pending {
    fn key(&self) -> Key {
        (self.0, self.1)
    }
}

/// ns per push+pop of the engine's `CalendarQueue` in the classic hold
/// model: `depth` events pending, each pop rescheduled one scheduling
/// lead ahead, leads drawn from `leads_ns` (the fixture's link delays —
/// a frame arrival one propagation ahead is the engine's commonest
/// event).
pub fn queue_op_ns(depth: usize, leads_ns: &[u64]) -> f64 {
    if depth == 0 || leads_ns.is_empty() {
        return 0.0;
    }
    let mut rng = Rng::new(depth as u64, 0x0EE);
    let mut lead = move || leads_ns[rng.below(leads_ns.len() as u64) as usize];
    let mut q: CalendarQueue<Pending> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        q.push(Pending(lead(), seq));
    }
    const OPS: usize = 65_536;
    time_rounds(
        OPS,
        || (),
        |()| {
            for _ in 0..OPS {
                let Pending(now, _) = q.pop().expect("hold model keeps depth constant");
                seq += 1;
                q.push(Pending(now + lead(), seq));
            }
        },
    )
}

/// Host-time cost of the directory's route search and of compiling its
/// answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectoryCosts {
    /// `TeTopology::k_routes` alone, median µs.
    pub k_routes_p50_us: f64,
    /// `TeTopology::k_routes` alone, p99 (or highest supported) µs.
    pub k_routes_p99_us: f64,
    /// `TeTopology::set_load_milli`, ns/op.
    pub update_ns: f64,
    /// `CompiledRoute::compile`, ns/op.
    pub compile_ns: f64,
}

/// Replay the directory's search over the sampled `(src, dst)` queries
/// and the compile step over the sampled advisories.
pub fn directory(
    te: &TeTopology,
    queries: &[(u32, u32)],
    q: &TeQuery,
    advisories: &[Advisory],
) -> DirectoryCosts {
    let mut each_ns: Vec<u64> = queries
        .iter()
        .map(|&(src, dst)| {
            let t0 = Instant::now();
            black_box(te.k_routes(src, Peer::Host(dst), q));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    each_ns.sort_unstable();
    let hi = highest_supported_percentile(each_ns.len()).min(99.0);

    let mut scratch = te.clone();
    let links: Vec<(u32, u8)> = advisories
        .iter()
        .flat_map(|a| a.route.hops.iter().map(|h| (h.router_id, h.port)))
        .collect();
    let mut milli = 0u32;
    let update_ns = time_rounds(
        links.len(),
        || (),
        |()| {
            milli = milli % 700 + 1;
            for &(r, p) in &links {
                scratch.set_load_milli(r, p, milli);
            }
        },
    );
    let compile_ns = time_rounds(
        advisories.len(),
        || (),
        |()| {
            for a in advisories {
                black_box(CompiledRoute::compile(
                    black_box(&a.route),
                    &a.tokens,
                    Priority::NORMAL,
                ));
            }
        },
    );
    DirectoryCosts {
        k_routes_p50_us: percentile(&each_ns, 50.0) as f64 / 1e3,
        k_routes_p99_us: percentile(&each_ns, hi) as f64 / 1e3,
        update_ns,
        compile_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hold_model_times_something_and_handles_empty_input() {
        assert_eq!(queue_op_ns(0, &[1]), 0.0);
        assert_eq!(queue_op_ns(8, &[]), 0.0);
        assert!(queue_op_ns(64, &[150_000, 200_000, 1_000]) > 0.0);
    }

    #[test]
    fn token_replay_without_capture_times_minting_only() {
        let c = token(None, 100);
        assert!(c.mint_ns > 0.0);
        assert_eq!((c.check_hit_ns, c.check_miss_ns), (0.0, 0.0));
    }
}
