//! `determinism`: no nondeterminism source in any crate a simulation
//! runs.
//!
//! The simulation's whole verification story — golden digests, 32-seed
//! replay suites, shard-count invariance — rests on simulated behaviour
//! being a pure function of (topology, seed). This rule finds the
//! ambient-state sources that silently break that contract:
//!
//! * hash-ordered iteration (`HashMap`/`HashSet` iteration order varies
//!   per process since Rust randomizes SipHash keys),
//! * wall-clock reads (`std::time::Instant`, `SystemTime`),
//! * process environment reads (`std::env`),
//! * thread creation outside the sync nucleus (`thread::spawn`,
//!   `thread::scope`, builder `.spawn(..)`),
//! * ambient RNG (`thread_rng`, `from_entropy`, `OsRng`) that bypasses
//!   the engine-owned seeded stream behind `Context::rng()`.
//!
//! Every source is flagged at its own site, in every crate under
//! `crates/` outside [`crate::rules::TOOL_CRATES`]: hosts and routers
//! run behind `Box<dyn Node>`, so which crate a fn lives in says nothing
//! about whether the engine reaches it. Inside the deterministic core
//! ([`crate::rules::CORE_CRATES`]) merely owning a `HashMap`/`HashSet`
//! is flagged too — a latent iteration hazard with no lookup-heavy
//! table to justify it.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::{is_test_location, SourceFile};
use std::collections::BTreeSet;

/// Methods whose receiver order is the container's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "retain_mut",
];

/// See the module docs.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "no hash-ordered iteration, wall-clock, env, thread, or ambient-RNG source in any crate a simulation runs; no HashMap/HashSet at all in the deterministic core"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if is_test_location(&f.rel) || !ctx.cfg.is_sim_file(&f.rel) {
                continue;
            }
            let in_core = ctx.cfg.is_core_file(&f.rel);
            let exempt_thread = ctx.cfg.is_sync_module(&f.rel);
            for (line, what) in find_sources(f, in_core, exempt_thread) {
                out.push(Diagnostic::new(&f.rel, line, self.name(), what));
            }
        }
    }
}

/// Scan one file for nondeterminism sources, as `(line, message)`.
/// Container-type sites (a `HashMap`/`HashSet` ident at all) are
/// reported only when the file is core (`in_core`).
fn find_sources(f: &SourceFile, in_core: bool, exempt_thread: bool) -> Vec<(u32, String)> {
    let hash_names = hash_bound_names(f);
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
            "HashMap" | "HashSet" if in_core && prev != Some("fn") => {
                sites.push((
                    t.line,
                    format!(
                        "`{}` in the deterministic core — iteration order varies per process; \
                         use BTreeMap/BTreeSet, LinearMap, or a sorted Vec",
                        t.text
                    ),
                ));
            }
            m if ITER_METHODS.contains(&m)
                && prev == Some(".")
                && next == Some("(")
                && i >= 2
                && f.tok(i - 2).kind == TokKind::Ident
                && hash_names.contains(&f.tok(i - 2).text) =>
            {
                sites.push((t.line, hash_iteration_msg(&f.tok(i - 2).text)));
            }
            "for" => sites.extend(for_loop_over_hash(f, i, &hash_names)),
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
                    "`std::env` reads ambient process state — thread configuration \
                     through SimConfig instead"
                        .to_string(),
                ));
            }
            "spawn" | "scope"
                if !exempt_thread
                    && next == Some("(")
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
                        "`{}` creates threads outside sim/sync.rs — scheduling order would \
                         leak into results; all parallelism goes through the conservative \
                         window protocol",
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

fn hash_iteration_msg(name: &str) -> String {
    format!(
        "iteration over hash-ordered `{name}` is nondeterministic — \
         use BTreeMap/BTreeSet or sort before iterating"
    )
}

/// Names bound to a `HashMap`/`HashSet` anywhere in the file: struct
/// fields and let-bindings with an explicit type annotation
/// (`x: HashMap<..>`), plus `let x = HashMap::new()`-style inits.
fn hash_bound_names(f: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..f.code.len() {
        let t = f.tok(i);
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 3
            && f.tok(j - 1).text == ":"
            && f.tok(j - 2).text == ":"
            && f.tok(j - 3).kind == TokKind::Ident
        {
            j -= 3;
        }
        // Skip reference/mutability sigils before the path.
        let mut p = j;
        while p > 0 && matches!(f.tok(p - 1).text.as_str(), "&" | "mut") {
            p -= 1;
        }
        if p < 2 {
            continue;
        }
        let sep = f.tok(p - 1);
        let cand = f.tok(p - 2);
        let is_single_colon = sep.text == ":" && (p < 3 || f.tok(p - 3).text != ":");
        if (is_single_colon || sep.text == "=") && cand.kind == TokKind::Ident {
            names.insert(cand.text.clone());
        }
    }
    names
}

/// `for pat in <expr mentioning a hash-bound name> {` — report the
/// mention. Bounded lookahead; stops at the loop's opening brace.
fn for_loop_over_hash(
    f: &SourceFile,
    for_idx: usize,
    hash_names: &BTreeSet<String>,
) -> Option<(u32, String)> {
    let n = f.code.len();
    let mut seen_in = false;
    for j in for_idx + 1..(for_idx + 96).min(n) {
        let t = f.tok(j);
        match t.text.as_str() {
            "{" if seen_in => return None,
            "in" if t.kind == TokKind::Ident => seen_in = true,
            _ => {
                if seen_in && t.kind == TokKind::Ident && hash_names.contains(&t.text) {
                    return Some((t.line, hash_iteration_msg(&t.text)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_names_from_fields_and_lets() {
        let f = SourceFile::analyze(
            "crates/sim/src/x.rs".into(),
            "struct S { table: std::collections::HashMap<u8, u8> }\n\
             fn f() { let seen = HashSet::new(); let v: Vec<u8> = Vec::new(); }\n",
        );
        let names = hash_bound_names(&f);
        assert!(names.contains("table"));
        assert!(names.contains("seen"));
        assert!(!names.contains("v"));
    }

    #[test]
    fn iteration_sites_detected() {
        let f = SourceFile::analyze(
            "crates/sim/src/x.rs".into(),
            "struct S { m: HashMap<u8, u8> }\n\
             impl S { fn go(&self) { for k in self.m.keys() {} } }\n",
        );
        let core = find_sources(&f, true, false);
        assert!(core.iter().any(|(_, what)| what.contains("`HashMap` in")));
        // Outside the core, owning the map is fine; iterating it is not.
        let sites = find_sources(&f, false, false);
        assert!(sites.iter().all(|(line, _)| *line == 2), "{sites:?}");
        assert!(sites.iter().any(|(_, what)| what.contains("`m`")));
    }

    #[test]
    fn btree_iteration_is_clean() {
        let f = SourceFile::analyze(
            "crates/sim/src/x.rs".into(),
            "use std::collections::BTreeMap;\n\
             fn go(m: &BTreeMap<u8, u8>) { for k in m.keys() {} }\n",
        );
        assert!(find_sources(&f, true, false).is_empty());
    }

    #[test]
    fn clock_env_thread_rng_sources() {
        let f = SourceFile::analyze(
            "crates/transport/src/x.rs".into(),
            "fn a() { let t = std::time::Instant::now(); }\n\
             fn b() { let p = std::env::var(\"X\"); }\n\
             fn c() { std::thread::spawn(|| {}); }\n\
             fn d() { let r = rand::thread_rng(); }\n",
        );
        assert_eq!(find_sources(&f, false, false).len(), 4);
    }

    #[test]
    fn sync_module_thread_use_is_exempt() {
        let f = SourceFile::analyze(
            "crates/sim/src/sync.rs".into(),
            "fn run() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n",
        );
        let sites = find_sources(&f, true, true);
        assert!(sites.is_empty(), "{sites:?}");
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
