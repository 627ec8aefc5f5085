//! The determinism rule.
//!
//! PRs 3–8 all lean on byte-identical reports: sweep rows equal at any
//! thread count, service replay equal at any worker count, committed
//! BENCH_*.json files regenerable bit-for-bit. Two things quietly break
//! that property:
//!
//! * **Hashed collections.** `HashMap`/`HashSet` iteration order is
//!   randomized per process; any hashed container that even *touches* a
//!   report path is a latent nondeterminism bug. Library code must use
//!   `BTreeMap`/`BTreeSet` or sorted vectors (binaries and tests may
//!   hash).
//! * **Ambient inputs.** Wall-clock reads (`Instant::now`,
//!   `SystemTime::now`) and environment reads (`std::env::*`) make a
//!   run depend on when and where it ran. They are confined to the
//!   bench/CLI crates whose whole job is measuring real time — library
//!   code that genuinely needs a wall clock must carry a
//!   `// lint: allow(determinism)` suppression justifying itself.

use super::{FileCtx, Rule, WALLCLOCK_CRATES};
use crate::lint::Violation;

/// Hashed collections with randomized iteration order.
const HASHED: &[&str] = &["HashMap", "HashSet"];

/// `env::` functions that read ambient process state.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "args", "args_os", "current_dir"];

/// Flags hashed collections in library code and wall-clock/environment
/// reads outside the bench/CLI allowlist.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "no hashed collections in library code; wall-clock/env reads confined to bench + binaries"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if ctx.module.is_bin {
            return;
        }
        let clock_ok = WALLCLOCK_CRATES.contains(&ctx.module.krate.as_str());
        for ci in 0..ctx.code.len() {
            if ctx.in_test(ci) {
                continue;
            }
            let text = ctx.ctext(ci);
            if HASHED.contains(&text) {
                ctx.flag(ci, self.name(), out);
                continue;
            }
            if clock_ok {
                continue;
            }
            if (text == "Instant" || text == "SystemTime") && ctx.seq(ci + 1, &["::", "now"]) {
                ctx.flag(ci, self.name(), out);
                continue;
            }
            if text == "env"
                && ctx.seq(ci + 1, &["::"])
                && ci + 2 < ctx.code.len()
                && ENV_READS.contains(&ctx.ctext(ci + 2))
            {
                ctx.flag(ci, self.name(), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint::scan_source;
    use std::path::Path;

    fn lib(src: &str) -> Vec<(&'static str, usize)> {
        scan_source(Path::new("crates/demo/src/lib.rs"), src)
            .violations
            .iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn hashed_collections_banned_in_library_code() {
        let src = "use std::collections::HashMap;\nfn f() { let _: HashMap<u32, u32> = HashMap::new(); }\n";
        let v = lib(src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|(r, _)| *r == "determinism"));
        assert!(lib("use std::collections::BTreeMap;\n").is_empty());
        // Tests and binaries may hash.
        assert!(lib("#[cfg(test)]\nmod t { use std::collections::HashSet; }\n").is_empty());
        assert!(scan_source(Path::new("crates/demo/src/bin/tool.rs"), src).violations.is_empty());
        // "HashMap" in a string or comment is inert.
        assert!(lib("// a HashMap would be wrong here\nfn f() -> &'static str { \"HashMap\" }\n")
            .is_empty());
    }

    #[test]
    fn wallclock_and_env_reads_confined() {
        assert_eq!(lib("fn f() { let _ = Instant::now(); }\n"), [("determinism", 1)]);
        assert_eq!(lib("fn f() { let _ = SystemTime::now(); }\n"), [("determinism", 1)]);
        assert_eq!(lib("fn f() { let _ = std::env::var(\"X\"); }\n"), [("determinism", 1)]);
        assert_eq!(lib("fn f() { for a in std::env::args() {} }\n"), [("determinism", 1)]);
        // The bench crate measures real time by design.
        let t = "fn f() { let _ = Instant::now(); }\n";
        assert!(scan_source(Path::new("crates/bench/src/experiments.rs"), t).violations.is_empty());
        // env!() is compile-time and fine; elapsed() on a passed-in
        // instant is fine.
        assert!(lib("fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }\n").is_empty());
        assert!(lib("fn f(t: std::time::Instant) -> u128 { t.elapsed().as_nanos() }\n").is_empty());
    }

    #[test]
    fn suppression_allows_a_justified_wall_clock() {
        let src = "\
fn f() -> Instant {
    // Wall time is the measured quantity here.
    Instant::now() // lint: allow(determinism)
}
";
        let scan = scan_source(Path::new("crates/demo/src/lib.rs"), src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert_eq!(scan.suppressed, 1);
    }
}
