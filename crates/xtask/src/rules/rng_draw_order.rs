//! `rng-draw-order`: node/router code draws randomness only through
//! `Context::rng()`.
//!
//! The engine owns one seeded `StdRng`, and replay-by-seed depends on
//! every draw coming out of that stream in event order. A node that
//! constructs its own RNG — even a seeded one — forks a private stream
//! whose draws the engine does not order, and an entropy-seeded one
//! breaks replay outright. So in
//! node/router code ([`crate::rules::NODE_CODE_PREFIXES`]) the rule
//! bans naming RNG types and seeding/entropy constructors at all;
//! calling `.gen_range(..)` on the `&mut StdRng` handed out by
//! `Context::rng()` (including `use rand::Rng` to bring the trait into
//! scope) stays legal.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};

/// RNG types and constructors whose mere mention means a private
/// stream: owning the value is the violation, not a particular call.
const BANNED: &[&str] = &[
    "StdRng",
    "SmallRng",
    "ThreadRng",
    "OsRng",
    "thread_rng",
    "from_entropy",
    "from_seed",
    "seed_from_u64",
    "from_rng",
];

/// See the module docs.
pub struct RngDrawOrder;

impl Rule for RngDrawOrder {
    fn name(&self) -> &'static str {
        "rng-draw-order"
    }

    fn describe(&self) -> &'static str {
        "node/router code takes randomness only from Context::rng(); no private RNG construction or seeding"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if !ctx.cfg.is_node_code(&f.rel) || crate::source::is_test_location(&f.rel) {
                continue;
            }
            for i in 0..f.tokens.len() {
                if f.in_attribute(i) {
                    continue;
                }
                let t = f.tok(i);
                if t.kind != TokKind::Ident
                    || f.is_test_line(t.line)
                    || !BANNED.contains(&t.text.as_str())
                {
                    continue;
                }
                // Not a declaration of a same-named fn (shims define
                // these; node code only ever references them).
                if i > 0 && f.tok(i - 1).text == "fn" {
                    continue;
                }
                out.push(Diagnostic::new(
                    &f.rel,
                    t.line,
                    self.name(),
                    format!(
                        "`{}` in node/router code forks a private RNG stream — take draws \
                         from `ctx.rng()` so event-order replay holds",
                        t.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Config;
    use crate::source::SourceFile;

    fn run_on(rel: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::analyze(rel.to_string(), src)];
        let cfg = Config {
            fixture_scopes: true,
        };
        let ctx = LintCtx {
            files: &files,
            cfg: &cfg,
        };
        let mut out = Vec::new();
        RngDrawOrder.check(&ctx, &mut out);
        out
    }

    #[test]
    fn private_rng_in_node_code_flagged() {
        let d = run_on(
            "bad_node.rs",
            "use rand::rngs::StdRng;\nuse rand::SeedableRng;\n\
             fn jitter() -> u64 { let mut r = StdRng::seed_from_u64(7); 3 }\n",
        );
        assert!(d.iter().any(|x| x.msg.contains("StdRng")));
        assert!(d.iter().any(|x| x.msg.contains("seed_from_u64")));
    }

    #[test]
    fn context_draws_are_clean() {
        let d = run_on(
            "clean_node.rs",
            "use rand::Rng;\nfn jitter(ctx: &mut Context) -> u64 { ctx.rng().gen_range(0..9) }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_node_files_out_of_scope() {
        let d = run_on(
            "crates/sim/src/engine/dispatch.rs",
            "fn f() { let r = StdRng::seed_from_u64(7); }\n",
        );
        assert!(d.is_empty());
    }
}
