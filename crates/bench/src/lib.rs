//! The experiment harness behind the `exp` binary.
//!
//! Each experiment in [`exp`] regenerates one table/figure of the
//! paper's evaluation (see DESIGN.md §3 for the index) as a pure
//! function returning a [`Report`]; `main.rs` alone reads argv, prints,
//! writes `results/` and sets the exit code.

#![forbid(unsafe_code)]

use std::fmt::{self, Display};

pub mod exp;
pub mod json;

use json::Json;

/// What one experiment run produced.
#[derive(Default)]
pub struct Report {
    /// Tables and commentary, in the order they print.
    pub text: String,
    /// The contents of the experiment's results file.
    pub json: Json,
    /// Gates the run failed; empty means it passed.
    pub failures: Vec<String>,
}

impl Report {
    /// Append a rendered table.
    pub fn table(&mut self, t: &Table) {
        self.text.push_str(&t.to_string());
    }

    /// Append a line (or paragraph) of commentary.
    pub fn note(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Record `what` as a failure unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

/// A printable results table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (any Display values).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }
}

/// Renders with aligned columns, one line per row.
impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            writeln!(f, "{}", s.trim_end())
        };
        line(f, &self.headers)?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w + 2))
                .collect::<String>()
        )?;
        self.rows.iter().try_for_each(|row| line(f, row))
    }
}

/// Format a fraction as a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Format seconds as adaptive µs/ms.
pub fn dur_us(seconds: f64) -> String {
    let us = seconds * 1e6;
    if us >= 10_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{:.1} µs", us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&[&1, &"xyz"]);
        t.row(&[&22, &"q"]);
        assert_eq!(
            t.to_string(),
            "\n== demo ==\n a   bb\n---------\n 1  xyz\n22    q\n"
        );
    }

    #[test]
    fn report_collects_text_and_failed_gates() {
        let mut r = Report::default();
        r.note("one");
        r.gate(true, "held");
        r.gate(false, "broke");
        assert_eq!(r.text, "one\n");
        assert_eq!(r.failures, ["broke"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(dur_us(0.0000015), "1.5 µs");
        assert_eq!(dur_us(0.05), "50.00 ms");
    }
}

pub mod topo {
    //! Reusable topologies for the experiments.

    use sirpent::router::link::LinkFrame;
    use sirpent::router::scripted::ScriptedHost;
    use sirpent::router::viper::{SwitchMode, ViperConfig, ViperRouter};
    use sirpent::sim::{NodeId, SimDuration, Simulator};
    use sirpent::wire::buf::{FrameBuf, PacketBuf};
    use sirpent::wire::packet::PacketBuilder;
    use sirpent::wire::viper::{Priority, SegmentRepr, PORT_LOCAL};

    /// A linear chain: src — R1 — … — Rn — dst, all point-to-point.
    pub struct Chain {
        /// The simulator.
        pub sim: Simulator,
        /// Source endpoint.
        pub src: NodeId,
        /// Destination endpoint.
        pub dst: NodeId,
        /// The routers, in order.
        pub routers: Vec<NodeId>,
    }

    /// Build a chain of `n` VIPER routers with the given mode and link
    /// parameters. Router ports: 1 = upstream, 2 = downstream.
    pub fn chain(seed: u64, n: usize, rate_bps: u64, prop: SimDuration, mode: SwitchMode) -> Chain {
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(Box::new(ScriptedHost::new()));
        let dst = sim.add_node(Box::new(ScriptedHost::new()));
        let routers: Vec<NodeId> = (0..n)
            .map(|i| {
                let mut cfg = ViperConfig::basic(i as u32 + 1, &[1, 2]);
                cfg.mode = mode;
                sim.add_node(Box::new(ViperRouter::new(cfg)))
            })
            .collect();
        if n == 0 {
            sim.p2p(src, 0, dst, 0, rate_bps, prop);
        } else {
            sim.p2p(src, 0, routers[0], 1, rate_bps, prop);
            for w in routers.windows(2) {
                sim.p2p(w[0], 2, w[1], 1, rate_bps, prop);
            }
            sim.p2p(routers[n - 1], 2, dst, 0, rate_bps, prop);
        }
        Chain {
            sim,
            src,
            dst,
            routers,
        }
    }

    /// A Sirpent packet that crosses `hops` routers (all exiting port 2)
    /// and carries `payload` at `priority`.
    pub fn packet(hops: usize, payload: Vec<u8>, priority: Priority) -> Vec<u8> {
        let mut b = PacketBuilder::new().without_mtu_check();
        for _ in 0..hops {
            b = b.segment(SegmentRepr {
                port: 2,
                priority,
                ..Default::default()
            });
        }
        b.segment(SegmentRepr {
            port: PORT_LOCAL,
            priority,
            ..Default::default()
        })
        .payload(payload)
        .build()
        .expect("valid packet")
    }

    /// Frame a Sirpent packet for a point-to-point link.
    pub fn frame(packet: impl Into<PacketBuf>) -> FrameBuf {
        LinkFrame::Sirpent {
            ff_hint: 0,
            packet: packet.into(),
        }
        .into_p2p_frame()
    }
}
