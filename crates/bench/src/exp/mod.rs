//! The experiments and the one table that names them.

use crate::Report;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod failover;
pub mod te;

/// Where results files live: the workspace root's `results/`, wherever
/// cargo was invoked from.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// One row of the registry.
pub struct Experiment {
    /// What `exp <id>` selects.
    pub id: &'static str,
    /// Stem of the committed `results/<stem>.json`, if the experiment
    /// has one.
    pub results: Option<&'static str>,
    /// The experiment itself.
    pub run: fn() -> Report,
}

const fn row(id: &'static str, results: Option<&'static str>, run: fn() -> Report) -> Experiment {
    Experiment { id, results, run }
}

/// Every experiment, in the order `exp all` runs them.
pub const REGISTRY: &[Experiment] = &[
    row("e1", Some("e1_header"), e1::run),
    row("e2", Some("e2_switching"), e2::run),
    row("e3", Some("e3_overhead"), e3::run),
    row("e4", Some("e4_congestion"), e4::run),
    row("e5", Some("e5_tokens"), e5::run),
    row("e6", Some("e6_logical"), e6::run),
    row("e7", Some("e7_scale"), e7::run),
    row("e8", Some("e8_lifetime"), e8::run),
    row("e9", Some("e9_gaps"), e9::run),
    row("e10", Some("e10_cvc"), e10::run),
    row("e11", Some("e11_multicast"), e11::run),
    row("e12", Some("e12_misdelivery"), e12::run),
    row("failover", Some("FAILOVER"), failover::run),
    row("te-small", None, te::small),
    row("te", Some("TE"), te::heavy),
];
