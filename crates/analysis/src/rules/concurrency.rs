//! Concurrency rules: SeqCst ban, the full ordering audit, spawn and
//! atomic-type confinement.
//!
//! The paper's shared-memory router leaves the cost array unlocked and
//! relies on relaxed atomics being *enough* — a stray `SeqCst` would
//! hide a reasoning error rather than fix one, and an atomic (or a
//! memory-ordering argument) outside the audited modules would be
//! invisible to the race analysis that justifies the design. These
//! rules make that discipline mechanical.

use super::{FileCtx, Rule, ATOMICS_MODULES, SPAWN_MODULES};
use crate::lint::Violation;

/// Atomic memory-ordering variants (`std::sync::atomic::Ordering`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Comparison-ordering variants (`std::cmp::Ordering`) — always fine.
const CMP_ORDERINGS: &[&str] = &["Less", "Equal", "Greater"];

/// `Ordering::SeqCst` is banned everywhere, with no allowlist: the
/// routers are deliberately relaxed (the paper's unsynchronized cost
/// array), and sequential consistency anywhere would paper over a
/// misunderstanding the analysis crate exists to surface.
pub struct NoSeqCst;

impl Rule for NoSeqCst {
    fn name(&self) -> &'static str {
        "no-seqcst"
    }

    fn describe(&self) -> &'static str {
        "Ordering::SeqCst is banned everywhere; the cost array is deliberately relaxed"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        for ci in 0..ctx.code.len() {
            if ctx.in_test(ci) {
                continue;
            }
            if ctx.ctext(ci) == "SeqCst" {
                ctx.flag(ci, self.name(), out);
            }
        }
    }
}

/// Every `Ordering::<variant>` path must classify: atomic orderings are
/// confined to the audited atomics modules (SeqCst is [`NoSeqCst`]'s
/// finding and not double-reported), `std::cmp` orderings pass, and an
/// unrecognized variant is flagged so a new ordering cannot slip in
/// unclassified.
pub struct OrderingAudit;

impl Rule for OrderingAudit {
    fn name(&self) -> &'static str {
        "ordering-audit"
    }

    fn describe(&self) -> &'static str {
        "every Ordering:: path must classify; atomic orderings confined to audited modules"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        let audited = ctx.module_in(ATOMICS_MODULES);
        for ci in 0..ctx.code.len() {
            if ctx.in_test(ci) || ctx.ctext(ci) != "Ordering" || !ctx.seq(ci + 1, &["::"]) {
                continue;
            }
            let Some(variant) = (ci + 2 < ctx.code.len()).then(|| ctx.ctext(ci + 2)) else {
                continue;
            };
            if variant == "SeqCst" {
                continue; // no-seqcst owns this finding
            }
            if CMP_ORDERINGS.contains(&variant) {
                continue;
            }
            if ATOMIC_ORDERINGS.contains(&variant) {
                if !audited {
                    ctx.flag(ci, self.name(), out);
                }
            } else {
                // Unclassified: neither an atomic nor a cmp variant.
                ctx.flag(ci, self.name(), out);
            }
        }
    }
}

/// Raw thread spawns (`thread::spawn`, `scope.spawn`) are confined to
/// the audited executors; everything else must route work through them
/// so the race analysis and the deterministic replay cover every thread
/// in the workspace.
pub struct NoRawSpawn;

impl Rule for NoRawSpawn {
    fn name(&self) -> &'static str {
        "no-raw-spawn"
    }

    fn describe(&self) -> &'static str {
        "thread spawns confined to the audited executor modules"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if ctx.module_in(SPAWN_MODULES) {
            return;
        }
        for ci in 0..ctx.code.len() {
            if ctx.in_test(ci) {
                continue;
            }
            if ctx.seq(ci, &["thread", "::", "spawn", "("]) || ctx.seq(ci, &[".", "spawn", "("]) {
                ctx.flag(ci, self.name(), out);
            }
        }
    }
}

/// Atomic types are confined to the audited modules: every relaxed
/// access in the workspace must be in a file the race analysis covers.
pub struct NoUnauditedAtomics;

impl Rule for NoUnauditedAtomics {
    fn name(&self) -> &'static str {
        "no-unaudited-atomics"
    }

    fn describe(&self) -> &'static str {
        "atomic types confined to the modules the race analysis audits"
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if ctx.module_in(ATOMICS_MODULES) {
            return;
        }
        for ci in 0..ctx.code.len() {
            if ctx.in_test(ci) {
                continue;
            }
            // `use std::sync::atomic::..` or any `sync::atomic` path.
            if ctx.seq(ci, &["sync", "::", "atomic"]) {
                ctx.flag(ci, self.name(), out);
                continue;
            }
            // Construction of an atomic type: AtomicU32::new(..).
            let text = ctx.ctext(ci);
            if text.starts_with("Atomic")
                && text.len() > "Atomic".len()
                && ctx.seq(ci + 1, &["::", "new", "("])
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
    fn seqcst_flagged_as_code_not_as_text() {
        assert_eq!(lib("fn f(a: &A) { a.load(Ordering::SeqCst); }\n"), [("no-seqcst", 1)]);
        // The three shapes that fooled the line scanner: strings, raw
        // strings, comments.
        assert!(lib("fn f() -> &'static str { \"Ordering::SeqCst\" }\n").is_empty());
        assert!(lib("fn f() -> &'static str { r#\"Ordering::SeqCst\"# }\n").is_empty());
        assert!(lib("// Ordering::SeqCst discussed here\nfn f() {}\n").is_empty());
        assert!(lib("/* Ordering::SeqCst\n   over lines */\nfn f() {}\n").is_empty());
    }

    #[test]
    fn bare_seqcst_import_is_flagged_too() {
        assert_eq!(lib("use std::sync::atomic::Ordering::SeqCst;\n").len(), 2);
        // (one no-seqcst for the ident, one no-unaudited-atomics for the path)
    }

    #[test]
    fn raw_identifier_cannot_evade() {
        assert_eq!(lib("fn f(a: &A) { a.load(Ordering::r#SeqCst); }\n"), [("no-seqcst", 1)]);
    }

    #[test]
    fn cmp_orderings_pass_the_audit() {
        let src = "fn f(a: u32, b: u32) -> bool {\n    matches!(a.cmp(&b), Ordering::Less | Ordering::Equal | Ordering::Greater)\n}\n";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn atomic_orderings_confined_and_unknown_variants_flagged() {
        let relaxed = "fn f(a: &A) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(lib(relaxed), [("ordering-audit", 1)]);
        let audited = scan_source(Path::new("crates/router/src/engine.rs"), relaxed);
        assert!(audited.violations.is_empty(), "{:?}", audited.violations);
        assert_eq!(lib("fn f() { g(Ordering::Sideways); }\n"), [("ordering-audit", 1)]);
    }

    #[test]
    fn spawns_confined_by_module_identity() {
        let src = "fn f(s: &S) { std::thread::spawn(|| {}); s.spawn(|| {}); }\n";
        assert_eq!(lib(src).len(), 2);
        for allowed in ["crates/shmem/src/parallel.rs", "crates/service/src/pool.rs"] {
            assert!(scan_source(Path::new(allowed), src).violations.is_empty(), "{allowed}");
        }
        // The allowance is the module, not the crate.
        assert_eq!(scan_source(Path::new("crates/service/src/server.rs"), src).violations.len(), 2);
        // spawn in a string or comment is inert.
        assert!(
            lib("// call .spawn( here\nfn f() -> &'static str { \"thread::spawn(\" }\n").is_empty()
        );
    }

    #[test]
    fn atomics_confined_by_module_identity() {
        let src = "use std::sync::atomic::AtomicU32;\nfn f() { let _ = AtomicU32::new(0); }\n";
        let v = lib(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|(r, _)| *r == "no-unaudited-atomics"));
        assert!(scan_source(Path::new("crates/router/src/engine.rs"), src).violations.is_empty());
        assert!(scan_source(Path::new("crates/shmem/src/shard.rs"), src).violations.is_empty());
    }
}
