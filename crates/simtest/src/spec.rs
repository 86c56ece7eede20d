//! Scenario specifications: a seed-derived, shrinkable, serializable
//! description of one chaos run — topology rails, workload packets, and
//! a fault schedule.
//!
//! Everything downstream (topology construction, chaos events, packet
//! bytes) is a pure function of a [`Scenario`], so a failing run is
//! reproduced by re-running its spec and minimized by shrinking the spec
//! (see [`crate::shrink`](mod@crate::shrink)). Probabilities are stored
//! in per-mille so the text fixture round-trips exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirpent_sim::splitmix64;

/// Last instant (µs) a workload packet may be injected.
pub const INJECT_END_US: u64 = 20_000;
/// Earliest instant (µs) a fault window may open.
pub const CHAOS_START_US: u64 = 200;
/// Instant (µs) by which every fault window must be closed (links back
/// up, routers restarted, partitions healed) so the system can drain.
pub const CHAOS_END_US: u64 = 30_000;
/// Instant (µs) the per-rail flush packet is injected. A flush re-kicks
/// output-port service on every hop of its rail: queues stalled by a
/// link-down window drain through the ordinary enqueue → service →
/// TxDone chain once the link is back.
pub const FLUSH_US: u64 = 35_000;

/// What kind of forwarding plane a rail exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailKind {
    /// VIPER routers in store-and-forward mode.
    ViperSf,
    /// VIPER routers in cut-through mode.
    ViperCut,
    /// The IP (datagram baseline) routers.
    Ip,
    /// The CVC (virtual-circuit baseline) switches.
    Cvc,
}

impl RailKind {
    /// Stable fixture token.
    pub fn token(self) -> &'static str {
        match self {
            RailKind::ViperSf => "viper-sf",
            RailKind::ViperCut => "viper-cut",
            RailKind::Ip => "ip",
            RailKind::Cvc => "cvc",
        }
    }

    /// Parse a fixture token.
    pub fn from_token(s: &str) -> Option<RailKind> {
        Some(match s {
            "viper-sf" => RailKind::ViperSf,
            "viper-cut" => RailKind::ViperCut,
            "ip" => RailKind::Ip,
            "cvc" => RailKind::Cvc,
            _ => return None,
        })
    }
}

/// One workload packet on a rail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSpec {
    /// Injection instant, µs.
    pub at_us: u64,
    /// Payload length in bytes (≥ 16: the first 8 carry the marker).
    pub payload_len: usize,
    /// Unique 8-byte magic written at the start of the payload; the
    /// invariant checks match deliveries to injections by this marker.
    pub marker: u64,
}

/// One homogeneous chain: source host → routers → destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RailSpec {
    /// Forwarding plane under test.
    pub kind: RailKind,
    /// Routers/switches in the chain (≥ 1).
    pub routers: usize,
    /// Per-frame random drop probability on forward channels, per-mille.
    pub drop_pm: u32,
    /// Per-frame single-byte corruption probability on forward channels,
    /// per-mille. Normalization zeroes this on non-IP rails: a corrupted
    /// VIPER link header can turn into a rate-control frame that is
    /// legitimately consumed without a drop counter, which would poison
    /// exact conservation.
    pub corrupt_pm: u32,
    /// Whether the rail carries Slick-Packets-style alternate branches:
    /// every router gets a bypass wire (port 3) around its forward hop,
    /// and workload headers are armed so a router adjacent to a failed
    /// hop diverts in-network instead of dropping. Normalization zeroes
    /// this on non-VIPER rails — only the VIPER forwarding plane
    /// understands alternate segments.
    pub protected: bool,
    /// The workload.
    pub packets: Vec<PacketSpec>,
}

impl RailSpec {
    /// Node count this rail contributes (routers + the two hosts).
    pub fn nodes(&self) -> usize {
        self.routers + 2
    }
}

/// One scheduled fault, in rail-relative coordinates. `hop` indexes the
/// forward channels of a rail: hop 0 is source-host → first-router, hop
/// `routers` is last-router → destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Take a forward channel down for a window, killing everything it
    /// carries.
    LinkFlap {
        /// Rail index.
        rail: usize,
        /// Forward-channel index within the rail.
        hop: usize,
        /// Window open, µs.
        down_us: u64,
        /// Window close, µs.
        up_us: u64,
    },
    /// Crash a router for a window; restart runs its state-loss hook.
    Crash {
        /// Rail index.
        rail: usize,
        /// Router index within the rail.
        router: usize,
        /// Crash instant, µs.
        down_us: u64,
        /// Restart instant, µs.
        up_us: u64,
    },
    /// Partition the rail: its source host plus the first half of its
    /// routers on one side, everything else on the other.
    Partition {
        /// Rail index.
        rail: usize,
        /// Window open, µs.
        start_us: u64,
        /// Window close, µs.
        end_us: u64,
    },
    /// Extra propagation jitter on a forward channel for a window.
    Jitter {
        /// Rail index.
        rail: usize,
        /// Forward-channel index within the rail.
        hop: usize,
        /// Window open, µs.
        start_us: u64,
        /// Window close, µs.
        end_us: u64,
        /// Largest extra propagation delay, µs.
        max_extra_us: u64,
    },
    /// Frame duplication window on a forward channel (corpus profile).
    Duplicate {
        /// Rail index.
        rail: usize,
        /// Forward-channel index within the rail.
        hop: usize,
        /// Window open, µs.
        start_us: u64,
        /// Window close, µs.
        end_us: u64,
        /// Per-delivery duplication probability, per-mille.
        prob_pm: u32,
    },
    /// Byte-error burst window on a forward channel of an IP rail
    /// (corpus profile).
    ErrorBurst {
        /// Rail index.
        rail: usize,
        /// Forward-channel index within the rail.
        hop: usize,
        /// Window open, µs.
        start_us: u64,
        /// Window close, µs.
        end_us: u64,
        /// Per-delivery burst probability, per-mille.
        prob_pm: u32,
        /// Largest corrupted run, bytes.
        max_run: usize,
    },
}

impl FaultSpec {
    /// The rail this fault targets.
    pub fn rail(&self) -> usize {
        match *self {
            FaultSpec::LinkFlap { rail, .. }
            | FaultSpec::Crash { rail, .. }
            | FaultSpec::Partition { rail, .. }
            | FaultSpec::Jitter { rail, .. }
            | FaultSpec::Duplicate { rail, .. }
            | FaultSpec::ErrorBurst { rail, .. } => rail,
        }
    }

    /// Dedup key: at most one fault of a kind per channel/router/rail
    /// (overlapping windows of the same kind on the same target have
    /// ill-defined pairing semantics).
    fn dedup_key(&self) -> (u8, usize, usize) {
        match *self {
            FaultSpec::LinkFlap { rail, hop, .. } => (0, rail, hop),
            FaultSpec::Crash { rail, router, .. } => (1, rail, router),
            FaultSpec::Partition { rail, .. } => (2, rail, 0),
            FaultSpec::Jitter { rail, hop, .. } => (3, rail, hop),
            FaultSpec::Duplicate { rail, hop, .. } => (4, rail, hop),
            FaultSpec::ErrorBurst { rail, hop, .. } => (5, rail, hop),
        }
    }
}

/// Which generation rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Exact-conservation tier: store-and-forward VIPER and IP rails
    /// only, no duplication, no error bursts — every injected packet is
    /// provably delivered, dropped, or still queued.
    Exact,
    /// Full corpus tier: adds cut-through VIPER, CVC rails, duplication
    /// windows and error bursts; conservation is checked set-wise.
    Corpus,
}

/// A complete, self-contained chaos run description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The seed the scenario was generated from (also seeds the
    /// simulator RNG, so one u64 reproduces the whole run).
    pub seed: u64,
    /// Topology + workload rails.
    pub rails: Vec<RailSpec>,
    /// The fault schedule.
    pub faults: Vec<FaultSpec>,
}

impl Scenario {
    /// Generate a scenario from one seed: a random 3–12 node mixed
    /// topology, workload, and fault schedule. Deterministic — the same
    /// seed always yields the same scenario.
    pub fn from_seed(seed: u64, profile: Profile) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_7E57_C0DE_CAFE);
        let target_nodes = rng.gen_range(3..=12usize);
        let mut rails = Vec::new();
        let mut marker_ctr: u64 = 0;
        let mut nodes = 0usize;
        while nodes + 3 <= target_nodes && rails.len() < 3 {
            let max_routers = (target_nodes - nodes - 2).clamp(1, 4);
            let routers = rng.gen_range(1..=max_routers);
            let kind = match profile {
                Profile::Exact => match rng.gen_range(0..2u32) {
                    0 => RailKind::ViperSf,
                    _ => RailKind::Ip,
                },
                Profile::Corpus => match rng.gen_range(0..4u32) {
                    0 => RailKind::ViperSf,
                    1 => RailKind::ViperCut,
                    2 => RailKind::Ip,
                    _ => RailKind::Cvc,
                },
            };
            let drop_pm = if rng.gen_bool(0.4) {
                rng.gen_range(10..=250u32)
            } else {
                0
            };
            let corrupt_pm = if kind == RailKind::Ip && rng.gen_bool(0.4) {
                rng.gen_range(10..=200u32)
            } else {
                0
            };
            // Protect VIPER rails often: the failover invariants are only
            // exercised when chaos windows intersect armed traffic, so the
            // corpus needs plenty of protected rails to stay non-vacuous.
            let protected =
                matches!(kind, RailKind::ViperSf | RailKind::ViperCut) && rng.gen_bool(0.6);
            let n_packets = rng.gen_range(2..=8usize);
            let packets = (0..n_packets)
                .map(|_| {
                    marker_ctr += 1;
                    PacketSpec {
                        at_us: rng.gen_range(0..INJECT_END_US),
                        payload_len: rng.gen_range(16..=600usize),
                        marker: splitmix64(seed ^ (marker_ctr << 16)),
                    }
                })
                .collect();
            nodes += routers + 2;
            rails.push(RailSpec {
                kind,
                routers,
                drop_pm,
                corrupt_pm,
                protected,
                packets,
            });
        }

        let n_faults = rng.gen_range(0..=5usize);
        let mut faults = Vec::new();
        for _ in 0..n_faults {
            let rail = rng.gen_range(0..rails.len());
            let r = &rails[rail];
            let a = rng.gen_range(CHAOS_START_US..CHAOS_END_US - 100);
            let b = rng.gen_range(a + 50..CHAOS_END_US);
            // On protected rails, aim chaos at hops a router can actually
            // divert around: hop 0 (host → first router) and the first
            // router have no upstream VIPER router to make the failover
            // decision, so faults there never exercise the alternate path.
            let hop = rng.gen_range(usize::from(r.protected)..=r.routers);
            let max_kind = match profile {
                Profile::Exact => 4,
                Profile::Corpus => 6,
            };
            faults.push(match rng.gen_range(0..max_kind as u32) {
                0 => FaultSpec::LinkFlap {
                    rail,
                    hop,
                    down_us: a,
                    up_us: b,
                },
                1 => FaultSpec::Crash {
                    rail,
                    router: rng.gen_range(usize::from(r.protected && r.routers > 1)..r.routers),
                    down_us: a,
                    up_us: b,
                },
                2 => FaultSpec::Partition {
                    rail,
                    start_us: a,
                    end_us: b,
                },
                3 => FaultSpec::Jitter {
                    rail,
                    hop,
                    start_us: a,
                    end_us: b,
                    max_extra_us: rng.gen_range(1..=500u64),
                },
                4 => FaultSpec::Duplicate {
                    rail,
                    hop,
                    start_us: a,
                    end_us: b,
                    prob_pm: rng.gen_range(100..=1000u32),
                },
                _ => FaultSpec::ErrorBurst {
                    rail,
                    hop,
                    start_us: a,
                    end_us: b,
                    prob_pm: rng.gen_range(100..=800u32),
                    max_run: rng.gen_range(1..=16usize),
                },
            });
        }

        let mut s = Scenario {
            seed,
            rails,
            faults,
        };
        s.normalize();
        s
    }

    /// Enforce the structural rules every runnable scenario satisfies.
    /// Applied after generation, after every shrink mutation, and after
    /// fixture parsing, so the whole pipeline works on one shape:
    ///
    /// * at least one rail, each with ≥ 1 router and ≥ 1 packet;
    /// * fault targets in range, windows ordered and closed within
    ///   [`CHAOS_START_US`], [`CHAOS_END_US`];
    /// * at most one fault of a kind per target (stable-first wins);
    /// * at most one partition overall (the engine's partition window is
    ///   global);
    /// * corruption and error bursts only on IP rails (see
    ///   [`RailSpec::corrupt_pm`]);
    /// * alternate-branch protection only on VIPER rails (see
    ///   [`RailSpec::protected`]);
    /// * marker payloads long enough to carry the marker.
    pub fn normalize(&mut self) {
        self.rails.retain(|r| !r.packets.is_empty());
        if self.rails.is_empty() {
            self.rails.push(RailSpec {
                kind: RailKind::ViperSf,
                routers: 1,
                drop_pm: 0,
                corrupt_pm: 0,
                protected: false,
                packets: vec![PacketSpec {
                    at_us: 0,
                    payload_len: 16,
                    marker: splitmix64(self.seed),
                }],
            });
        }
        for r in &mut self.rails {
            r.routers = r.routers.clamp(1, 4);
            r.drop_pm = r.drop_pm.min(1000);
            if r.kind != RailKind::Ip {
                r.corrupt_pm = 0;
            } else {
                r.corrupt_pm = r.corrupt_pm.min(1000);
            }
            if !matches!(r.kind, RailKind::ViperSf | RailKind::ViperCut) {
                r.protected = false;
            }
            for p in &mut r.packets {
                p.at_us = p.at_us.min(INJECT_END_US);
                p.payload_len = p.payload_len.clamp(16, 1000);
            }
        }
        let rails = &self.rails;
        let mut seen = std::collections::BTreeSet::new();
        let mut have_partition = false;
        self.faults.retain_mut(|f| {
            let Some(rail) = rails.get(f.rail()) else {
                return false;
            };
            // Clamp windows and targets into range.
            match f {
                FaultSpec::LinkFlap {
                    hop,
                    down_us,
                    up_us,
                    ..
                }
                | FaultSpec::Jitter {
                    hop,
                    start_us: down_us,
                    end_us: up_us,
                    ..
                }
                | FaultSpec::Duplicate {
                    hop,
                    start_us: down_us,
                    end_us: up_us,
                    ..
                }
                | FaultSpec::ErrorBurst {
                    hop,
                    start_us: down_us,
                    end_us: up_us,
                    ..
                } => {
                    *hop = (*hop).min(rail.routers);
                    clamp_window(down_us, up_us);
                }
                FaultSpec::Crash {
                    router,
                    down_us,
                    up_us,
                    ..
                } => {
                    *router = (*router).min(rail.routers - 1);
                    clamp_window(down_us, up_us);
                }
                FaultSpec::Partition {
                    start_us, end_us, ..
                } => {
                    clamp_window(start_us, end_us);
                    if have_partition {
                        return false;
                    }
                    have_partition = true;
                }
            }
            if let FaultSpec::ErrorBurst {
                prob_pm, max_run, ..
            } = f
            {
                if rail.kind != RailKind::Ip {
                    return false;
                }
                *prob_pm = (*prob_pm).min(1000);
                *max_run = (*max_run).clamp(1, 64);
            }
            if let FaultSpec::Duplicate { prob_pm, .. } = f {
                *prob_pm = (*prob_pm).min(1000);
            }
            seen.insert(f.dedup_key())
        });
    }

    /// Total node count across rails.
    pub fn nodes(&self) -> usize {
        self.rails.iter().map(RailSpec::nodes).sum()
    }

    /// Chaos events the fault schedule expands to (two per fault:
    /// open + close).
    pub fn schedule_events(&self) -> usize {
        self.faults.len() * 2
    }

    /// Render as a rerunnable text fixture (see
    /// [`Scenario::from_fixture_string`]).
    pub fn to_fixture_string(&self) -> String {
        let mut out = String::from("simtest-fixture v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for r in &self.rails {
            out.push_str(&format!(
                "rail {} routers={} drop_pm={} corrupt_pm={} protected={}\n",
                r.kind.token(),
                r.routers,
                r.drop_pm,
                r.corrupt_pm,
                u8::from(r.protected)
            ));
            for p in &r.packets {
                out.push_str(&format!(
                    "packet at={} len={} marker={:016x}\n",
                    p.at_us, p.payload_len, p.marker
                ));
            }
        }
        for f in &self.faults {
            let line = match *f {
                FaultSpec::LinkFlap {
                    rail,
                    hop,
                    down_us,
                    up_us,
                } => format!("fault linkflap rail={rail} hop={hop} down={down_us} up={up_us}"),
                FaultSpec::Crash {
                    rail,
                    router,
                    down_us,
                    up_us,
                } => format!("fault crash rail={rail} router={router} down={down_us} up={up_us}"),
                FaultSpec::Partition {
                    rail,
                    start_us,
                    end_us,
                } => format!("fault partition rail={rail} start={start_us} end={end_us}"),
                FaultSpec::Jitter {
                    rail,
                    hop,
                    start_us,
                    end_us,
                    max_extra_us,
                } => format!(
                    "fault jitter rail={rail} hop={hop} start={start_us} end={end_us} extra={max_extra_us}"
                ),
                FaultSpec::Duplicate {
                    rail,
                    hop,
                    start_us,
                    end_us,
                    prob_pm,
                } => format!(
                    "fault duplicate rail={rail} hop={hop} start={start_us} end={end_us} prob_pm={prob_pm}"
                ),
                FaultSpec::ErrorBurst {
                    rail,
                    hop,
                    start_us,
                    end_us,
                    prob_pm,
                    max_run,
                } => format!(
                    "fault errorburst rail={rail} hop={hop} start={start_us} end={end_us} prob_pm={prob_pm} run={max_run}"
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parse a fixture produced by [`Scenario::to_fixture_string`].
    pub fn from_fixture_string(text: &str) -> Result<Scenario, String> {
        let mut lines = text.lines();
        if lines.next() != Some("simtest-fixture v1") {
            return Err("missing fixture header".into());
        }
        let mut seed = None;
        let mut rails: Vec<RailSpec> = Vec::new();
        let mut faults = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("seed") => {
                    seed = Some(
                        parts
                            .next()
                            .ok_or("seed value missing")?
                            .parse::<u64>()
                            .map_err(|e| e.to_string())?,
                    );
                }
                Some("rail") => {
                    let kind = RailKind::from_token(parts.next().ok_or("rail kind missing")?)
                        .ok_or("unknown rail kind")?;
                    let kv = parse_kv(parts)?;
                    rails.push(RailSpec {
                        kind,
                        routers: get(&kv, "routers")? as usize,
                        drop_pm: get(&kv, "drop_pm")? as u32,
                        corrupt_pm: get(&kv, "corrupt_pm")? as u32,
                        // Absent in pre-failover fixtures: default off.
                        protected: get_or(&kv, "protected", 0)? != 0,
                        packets: Vec::new(),
                    });
                }
                Some("packet") => {
                    let kv = parse_kv(parts)?;
                    let rail = rails.last_mut().ok_or("packet before any rail")?;
                    rail.packets.push(PacketSpec {
                        at_us: get(&kv, "at")?,
                        payload_len: get(&kv, "len")? as usize,
                        marker: get_hex(&kv, "marker")?,
                    });
                }
                Some("fault") => {
                    let kind = parts.next().ok_or("fault kind missing")?.to_string();
                    let kv = parse_kv(parts)?;
                    let rail = get(&kv, "rail")? as usize;
                    faults.push(match kind.as_str() {
                        "linkflap" => FaultSpec::LinkFlap {
                            rail,
                            hop: get(&kv, "hop")? as usize,
                            down_us: get(&kv, "down")?,
                            up_us: get(&kv, "up")?,
                        },
                        "crash" => FaultSpec::Crash {
                            rail,
                            router: get(&kv, "router")? as usize,
                            down_us: get(&kv, "down")?,
                            up_us: get(&kv, "up")?,
                        },
                        "partition" => FaultSpec::Partition {
                            rail,
                            start_us: get(&kv, "start")?,
                            end_us: get(&kv, "end")?,
                        },
                        "jitter" => FaultSpec::Jitter {
                            rail,
                            hop: get(&kv, "hop")? as usize,
                            start_us: get(&kv, "start")?,
                            end_us: get(&kv, "end")?,
                            max_extra_us: get(&kv, "extra")?,
                        },
                        "duplicate" => FaultSpec::Duplicate {
                            rail,
                            hop: get(&kv, "hop")? as usize,
                            start_us: get(&kv, "start")?,
                            end_us: get(&kv, "end")?,
                            prob_pm: get(&kv, "prob_pm")? as u32,
                        },
                        "errorburst" => FaultSpec::ErrorBurst {
                            rail,
                            hop: get(&kv, "hop")? as usize,
                            start_us: get(&kv, "start")?,
                            end_us: get(&kv, "end")?,
                            prob_pm: get(&kv, "prob_pm")? as u32,
                            max_run: get(&kv, "run")? as usize,
                        },
                        other => return Err(format!("unknown fault kind {other}")),
                    });
                }
                Some(other) => return Err(format!("unknown fixture line {other}")),
                None => {}
            }
        }
        let mut s = Scenario {
            seed: seed.ok_or("fixture missing seed")?,
            rails,
            faults,
        };
        s.normalize();
        Ok(s)
    }
}

fn clamp_window(a: &mut u64, b: &mut u64) {
    *a = (*a).clamp(CHAOS_START_US, CHAOS_END_US - 1);
    *b = (*b).clamp(*a + 1, CHAOS_END_US);
}

fn parse_kv<'a>(
    parts: impl Iterator<Item = &'a str>,
) -> Result<std::collections::BTreeMap<&'a str, &'a str>, String> {
    let mut kv = std::collections::BTreeMap::new();
    for p in parts {
        let (k, v) = p.split_once('=').ok_or_else(|| format!("bad token {p}"))?;
        kv.insert(k, v);
    }
    Ok(kv)
}

fn get(kv: &std::collections::BTreeMap<&str, &str>, key: &str) -> Result<u64, String> {
    kv.get(key)
        .ok_or_else(|| format!("missing key {key}"))?
        .parse()
        .map_err(|e| format!("bad {key}: {e}"))
}

/// Like [`get`], but an absent key yields `default` — for fields added
/// after fixtures already existed in the wild.
fn get_or(
    kv: &std::collections::BTreeMap<&str, &str>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {key}: {e}")),
    }
}

fn get_hex(kv: &std::collections::BTreeMap<&str, &str>, key: &str) -> Result<u64, String> {
    u64::from_str_radix(kv.get(key).ok_or_else(|| format!("missing key {key}"))?, 16)
        .map_err(|e| format!("bad {key}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        for seed in 0..40u64 {
            for profile in [Profile::Exact, Profile::Corpus] {
                let a = Scenario::from_seed(seed, profile);
                let b = Scenario::from_seed(seed, profile);
                assert_eq!(a, b, "seed {seed} regenerated differently");
                assert!(
                    (3..=12).contains(&a.nodes()),
                    "nodes {} out of range",
                    a.nodes()
                );
                assert!(!a.rails.is_empty());
                if profile == Profile::Exact {
                    for r in &a.rails {
                        assert!(matches!(r.kind, RailKind::ViperSf | RailKind::Ip));
                    }
                    for f in &a.faults {
                        assert!(!matches!(
                            f,
                            FaultSpec::Duplicate { .. } | FaultSpec::ErrorBurst { .. }
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn fixture_round_trips() {
        for seed in [3u64, 17, 99] {
            let s = Scenario::from_seed(seed, Profile::Corpus);
            let text = s.to_fixture_string();
            let back = Scenario::from_fixture_string(&text).unwrap();
            assert_eq!(s, back, "fixture round-trip for seed {seed}");
        }
    }

    #[test]
    fn normalize_rejects_corruption_off_ip_rails() {
        let mut s = Scenario::from_seed(1, Profile::Exact);
        for r in &mut s.rails {
            r.corrupt_pm = 500;
        }
        s.normalize();
        for r in &s.rails {
            if r.kind != RailKind::Ip {
                assert_eq!(r.corrupt_pm, 0);
            }
        }
    }

    #[test]
    fn normalize_limits_protection_to_viper_rails() {
        let mut s = Scenario::from_seed(1, Profile::Corpus);
        for r in &mut s.rails {
            r.protected = true;
        }
        s.normalize();
        for r in &s.rails {
            assert_eq!(
                r.protected,
                matches!(r.kind, RailKind::ViperSf | RailKind::ViperCut),
                "protection survives exactly on VIPER rails"
            );
        }
    }

    #[test]
    fn pre_failover_fixture_parses_with_protection_off() {
        let text = "simtest-fixture v1\n\
                    seed 5\n\
                    rail viper-sf routers=2 drop_pm=0 corrupt_pm=0\n\
                    packet at=100 len=32 marker=00000000deadbeef\n";
        let s = Scenario::from_fixture_string(text).expect("legacy fixture parses");
        assert!(!s.rails[0].protected);
    }

    #[test]
    fn normalize_keeps_at_most_one_partition() {
        let mut s = Scenario::from_seed(1, Profile::Exact);
        s.faults = vec![
            FaultSpec::Partition {
                rail: 0,
                start_us: 300,
                end_us: 400,
            },
            FaultSpec::Partition {
                rail: 0,
                start_us: 500,
                end_us: 600,
            },
        ];
        s.normalize();
        let partitions = s
            .faults
            .iter()
            .filter(|f| matches!(f, FaultSpec::Partition { .. }))
            .count();
        assert_eq!(partitions, 1);
    }
}
