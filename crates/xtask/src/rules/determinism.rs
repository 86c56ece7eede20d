//! `determinism`: no nondeterminism source in any crate a simulation
//! runs.
//!
//! The simulation's whole verification story — golden digests and the
//! 32-seed replay suites — rests on simulated behaviour
//! being a pure function of (topology, seed). This rule finds the
//! ambient-state sources that silently break that contract:
//!
//! * hash containers (`HashMap`/`HashSet` iteration order varies per
//!   process since Rust randomizes SipHash keys; a table that is only
//!   looked up today is one loop away from a digest that varies by run,
//!   and an ordered map does the same lookups),
//! * wall-clock reads (`std::time::Instant`, `SystemTime`),
//! * process environment reads (`std::env`),
//! * thread creation (`thread::spawn`, `thread::scope`, builder
//!   `.spawn(..)`): the engine runs on one thread,
//! * ambient RNG (`thread_rng`, `from_entropy`, `OsRng`) that bypasses
//!   the engine-owned seeded stream behind `Context::rng()`.
//!
//! Every source is flagged at its own site, in every crate under
//! `crates/` outside [`crate::rules::TOOL_CRATES`]: hosts and routers
//! run behind `Box<dyn Node>`, so which crate a fn lives in says nothing
//! about whether the engine reaches it.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::{is_test_location, SourceFile};

/// See the module docs.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "no HashMap/HashSet, wall-clock, env, thread, or ambient-RNG source in any crate a simulation runs"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if is_test_location(&f.rel) || !ctx.cfg.is_sim_file(&f.rel) {
                continue;
            }
            for (line, what) in find_sources(f) {
                out.push(Diagnostic::new(&f.rel, line, self.name(), what));
            }
        }
    }
}

/// Scan one file for nondeterminism sources, as `(line, message)`.
fn find_sources(f: &SourceFile) -> Vec<(u32, String)> {
    let mut sites = Vec::new();
    let n = f.code.len();
    for i in 0..n {
        if f.in_attribute(i) {
            continue;
        }
        let t = f.tok(i);
        if t.kind != TokKind::Ident || f.is_test_line(t.line) {
            continue;
        }
        let prev = (i > 0).then(|| f.tok(i - 1).text.as_str());
        let next = (i + 1 < n).then(|| f.tok(i + 1).text.as_str());
        match t.text.as_str() {
            "HashMap" | "HashSet" if prev != Some("fn") => {
                sites.push((
                    t.line,
                    format!(
                        "`{}` in simulation code — iteration order varies per process; \
                         use BTreeMap/BTreeSet, LinearMap, or a sorted Vec",
                        t.text
                    ),
                ));
            }
            "Instant" | "SystemTime" if prev != Some("fn") => {
                sites.push((
                    t.line,
                    format!(
                        "`{}` reads wall-clock time — simulated behaviour must be a function \
                         of SimTime (and the seed) only",
                        t.text
                    ),
                ));
            }
            "env" if next == Some(":") && i >= 3 && f.tok(i - 3).text == "std" => {
                sites.push((
                    t.line,
                    "`std::env` reads ambient process state — take configuration as \
                     an explicit argument instead"
                        .to_string(),
                ));
            }
            "spawn" | "scope"
                if next == Some("(")
                    && ((i >= 3 && f.tok(i - 3).text == "thread") || prev == Some(".")) =>
            {
                // `thread::spawn` / `thread::scope` / builder `.spawn(`.
                // `.scope(` alone is too generic to claim.
                if t.text == "scope"
                    && prev == Some(".")
                    && !(i >= 3 && f.tok(i - 3).text == "thread")
                {
                    continue;
                }
                sites.push((
                    t.line,
                    format!(
                        "`{}` creates threads — scheduling order would leak into results; \
                         the engine runs on one thread",
                        t.text
                    ),
                ));
            }
            "thread_rng" | "from_entropy" | "OsRng" if prev != Some("fn") => {
                sites.push((
                    t.line,
                    format!(
                        "`{}` is ambient (entropy-seeded) RNG — draw through the \
                         engine-owned seeded stream (`Context::rng()`) so runs replay \
                         by seed",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_sites_detected() {
        // A table that is only looked up is flagged all the same; the
        // ordered map beside it may be walked.
        let files = [SourceFile::analyze(
            "crates/token/src/x.rs".into(),
            "struct S { m: HashMap<u8, u8>, o: BTreeMap<u8, u8> }\n\
             impl S { fn get(&self, k: u8) -> Option<&u8> { self.m.get(&k) }\n\
             fn walk(&self) { for k in self.o.keys() {} } }\n",
        )];
        let cfg = crate::rules::Config::default();
        let ctx = LintCtx {
            files: &files,
            cfg: &cfg,
        };
        let mut out = Vec::new();
        Determinism.check(&ctx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert!(out[0].msg.contains("`HashMap` in"));
    }

    #[test]
    fn btree_iteration_is_clean() {
        let f = SourceFile::analyze(
            "crates/sim/src/x.rs".into(),
            "use std::collections::BTreeMap;\n\
             fn go(m: &BTreeMap<u8, u8>) { for k in m.keys() {} }\n",
        );
        assert!(find_sources(&f).is_empty());
    }

    #[test]
    fn clock_env_thread_rng_sources() {
        let f = SourceFile::analyze(
            "crates/transport/src/x.rs".into(),
            "fn a() { let t = std::time::Instant::now(); }\n\
             fn b() { let p = std::env::var(\"X\"); }\n\
             fn c() { std::thread::spawn(|| {}); }\n\
             fn d() { let r = rand::thread_rng(); }\n\
             fn e() { std::thread::scope(|_| {}); }\n",
        );
        assert_eq!(find_sources(&f).len(), 5);
    }

    #[test]
    fn scope_is_every_crate_but_the_tools() {
        let cfg = crate::rules::Config::default();
        for rel in [
            "crates/core/src/host.rs",
            "crates/transport/src/endpoint.rs",
            "crates/token/src/cache.rs",
            "crates/sim/src/engine/dispatch.rs",
            "crates/bench/src/exp/e4.rs",
        ] {
            assert!(cfg.is_sim_file(rel), "{rel}");
        }
        for rel in [
            "crates/xtask/src/main.rs",
            "shims/rand/src/lib.rs",
            "examples/quickstart.rs",
        ] {
            assert!(!cfg.is_sim_file(rel), "{rel}");
        }
    }
}
