//! The unified drop taxonomy, exercised end to end: every
//! [`DropReason`] variant is constructible, maps to a unique dense
//! index and a pipeline stage, and the shared accounting counts each
//! drop exactly once — including the reasons that only arise deep in
//! the VIPER pipeline (token rejection, splice recursion).

use sirpent_router::link::LinkFrame;
use sirpent_router::logical::{PortBinding, TrunkStrategy};
use sirpent_router::scripted::ScriptedHost;
use sirpent_router::viper::{AuthConfig, DropReason, ViperConfig, ViperRouter};
use sirpent_sim::stats::{PipelineStats, Stage};
use sirpent_sim::{NodeId, SimDuration, SimTime, Simulator};
use sirpent_token::{AuthPolicy, TokenMinter};
use sirpent_wire::buf::FrameBuf;
use sirpent_wire::packet::PacketBuilder;
use sirpent_wire::viper::{SegmentRepr, PORT_LOCAL};

/// The exhaustive match: adding a variant to `DropReason` fails this
/// function at compile time until the taxonomy tables are updated.
fn checklist(why: DropReason) -> (usize, Stage) {
    match why {
        DropReason::ParseError => (0, Stage::Parse),
        DropReason::NoSuchPort => (1, Stage::Route),
        DropReason::QueueFull => (2, Stage::Enqueue),
        DropReason::DropIfBlocked => (3, Stage::Enqueue),
        DropReason::Preempted => (4, Stage::Transmit),
        DropReason::TokenMissing => (5, Stage::Authorize),
        DropReason::TokenRejected => (6, Stage::Authorize),
        DropReason::BadStructure => (7, Stage::Route),
        DropReason::TooDeep => (8, Stage::Route),
        DropReason::BadFrame => (9, Stage::Parse),
        DropReason::Checksum => (10, Stage::Parse),
        DropReason::TtlExpired => (11, Stage::Route),
        DropReason::NoRoute => (12, Stage::Route),
        DropReason::CannotFragment => (13, Stage::Enqueue),
        DropReason::UnknownCircuit => (14, Stage::Route),
        DropReason::LinkDown => (15, Stage::Transmit),
        DropReason::RouterDown => (16, Stage::Parse),
        DropReason::Partitioned => (17, Stage::Transmit),
        DropReason::BadLength => (18, Stage::Parse),
        DropReason::NextHopDown => (19, Stage::Route),
    }
}

#[test]
fn every_variant_has_unique_index_and_a_stage() {
    assert_eq!(DropReason::ALL.len(), DropReason::COUNT);
    let mut seen = [false; DropReason::COUNT];
    for &why in &DropReason::ALL {
        let (idx, stage) = checklist(why);
        assert_eq!(why.index(), idx, "{why:?} index drifted");
        assert_eq!(why.stage(), stage, "{why:?} stage drifted");
        assert!(!seen[idx], "{why:?} shares index {idx}");
        seen[idx] = true;
    }
    assert!(seen.iter().all(|&s| s), "an index is unreachable");
}

#[test]
fn each_drop_counts_exactly_once() {
    let mut stats = PipelineStats::default();
    for &why in &DropReason::ALL {
        stats.drop(why);
    }
    for &why in &DropReason::ALL {
        assert_eq!(stats.drops.get(why), 1, "{why:?} not counted once");
        assert_eq!(stats.drops[why], 1);
    }
    assert_eq!(stats.drops.total(), DropReason::COUNT as u64);
    // `drop()` accounts the loss only: it must not also count stage
    // work, or drops would be double-visible in the stage counters.
    assert!(stats.stages.iter().all(|(_, n)| n == 0));
    // Deterministic, declaration-ordered iteration.
    let order: Vec<DropReason> = stats.drops.iter().map(|(k, _)| k).collect();
    assert_eq!(order, DropReason::ALL.to_vec());
}

// ---------- the hard-to-reach reasons, through the live pipeline -----

const MBPS_10: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(2_000);

fn one_router(cfg: ViperConfig) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(11);
    let a = sim.add_node(Box::new(ScriptedHost::new()));
    let b = sim.add_node(Box::new(ScriptedHost::new()));
    let r = sim.add_node(Box::new(ViperRouter::new(cfg)));
    sim.p2p(a, 0, r, 1, MBPS_10, PROP);
    sim.p2p(r, 2, b, 0, MBPS_10, PROP);
    (sim, a, r)
}

fn frame(pkt: Vec<u8>) -> FrameBuf {
    LinkFrame::Sirpent {
        ff_hint: 0,
        packet: pkt.into(),
    }
    .into_p2p_frame()
}

#[test]
fn token_rejected_counts_once_through_shared_accounting() {
    let minter = TokenMinter::new(0xBEEF, 5);
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    cfg.auth = Some(AuthConfig {
        key: minter.router_key(1),
        policy: AuthPolicy::Drop,
        verify_delay: SimDuration::from_micros(200),
        require_token: true,
    });
    let (mut sim, a, r) = one_router(cfg);
    let forged = PacketBuilder::new()
        .segment(SegmentRepr {
            port: 2,
            port_token: vec![0xEE; 32],
            ..Default::default()
        })
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(vec![1; 16])
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, frame(forged));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let stats = &sim.node::<ViperRouter>(r).stats;
    assert_eq!(stats.drops[DropReason::TokenRejected], 1);
    assert_eq!(
        stats.total_drops(),
        1,
        "rejected exactly once, nothing else"
    );
    assert_eq!(stats.forwarded, 0);
}

#[test]
fn too_deep_counts_once_through_shared_accounting() {
    let mut cfg = ViperConfig::basic(1, &[1, 2]);
    // A logical port spliced to itself: every resolution pass re-inserts
    // the same segment, so the depth guard is the only exit.
    cfg.logical
        .bind(150, PortBinding::Splice(vec![SegmentRepr::minimal(150)]));
    let (mut sim, a, r) = one_router(cfg);
    let pkt = PacketBuilder::new()
        .segment(SegmentRepr::minimal(150))
        .segment(SegmentRepr::minimal(PORT_LOCAL))
        .payload(vec![2; 16])
        .build()
        .unwrap();
    sim.node_mut::<ScriptedHost>(a)
        .plan(SimTime::ZERO, 0, frame(pkt));
    ScriptedHost::start(&mut sim, a);
    sim.run(100_000);

    let stats = &sim.node::<ViperRouter>(r).stats;
    assert_eq!(stats.drops[DropReason::TooDeep], 1);
    assert_eq!(stats.total_drops(), 1, "the recursion cut exactly once");
    assert_eq!(stats.forwarded, 0);
}

#[test]
fn empty_trunk_drops_no_such_port_under_either_strategy() {
    for strategy in [TrunkStrategy::FirstFree, TrunkStrategy::RoundRobin] {
        let mut cfg = ViperConfig::basic(1, &[1, 2]);
        cfg.logical.bind(
            150,
            PortBinding::Trunk {
                members: vec![],
                strategy,
            },
        );
        let (mut sim, a, r) = one_router(cfg);
        let pkt = PacketBuilder::new()
            .segment(SegmentRepr::minimal(150))
            .segment(SegmentRepr::minimal(PORT_LOCAL))
            .payload(vec![3; 16])
            .build()
            .unwrap();
        sim.node_mut::<ScriptedHost>(a)
            .plan(SimTime::ZERO, 0, frame(pkt));
        ScriptedHost::start(&mut sim, a);
        sim.run(100_000);

        let stats = &sim.node::<ViperRouter>(r).stats;
        assert_eq!(stats.drops[DropReason::NoSuchPort], 1, "{strategy:?}");
        assert_eq!(stats.total_drops(), 1, "{strategy:?}");
        assert_eq!(stats.forwarded, 0, "{strategy:?}");
    }
}
