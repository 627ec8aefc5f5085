//! The lint's rule registry.
//!
//! Every rule implements [`Rule`] over a [`FileCtx`] — one lexed file
//! plus its resolved module identity ([`crate::modtree`]) — and pushes
//! [`crate::lint::Violation`]s. Rules match *token
//! sequences*, never raw text, so string literals and comments can
//! never trip them; and they consult token-exact `#[cfg(test)]` spans,
//! so test modules are exempt wherever they sit in the file (the old
//! scanner's "everything below the first test gate" heuristic both
//! over-exempted trailing library code and was trivially fooled).
//!
//! Confinement allowlists key on module identity:
//!
//! | rule | confinement |
//! |------|-------------|
//! | `no-seqcst` | banned everywhere, no allowlist |
//! | `ordering-audit` | atomic orderings confined to [`ATOMICS_MODULES`]; every `Ordering::` path must classify as atomic or `cmp` |
//! | `no-raw-spawn` | spawns confined to [`SPAWN_MODULES`] |
//! | `no-unaudited-atomics` | atomic types confined to [`ATOMICS_MODULES`] |
//! | `no-unwrap` | library code only (binaries may unwrap) |
//! | `no-panic-in-protocol` | panic-family macros banned in [`NO_PANIC_CRATE`] |
//! | `determinism` | hashed collections banned in library code; wall-clock/env reads confined to [`WALLCLOCK_CRATES`] + binaries |
//! | `unsafe-confinement` | `unsafe` confined to [`UNSAFE_MODULES`] (empty) |

use std::path::Path;

use crate::lexer::{TokKind, Tokens};
use crate::lint::Violation;
use crate::modtree::ModInfo;

mod concurrency;
mod determinism;
mod panics;
mod unsafe_code;

/// Modules where spawning threads is the audited mechanism.
pub const SPAWN_MODULES: &[&str] = &["locus_shmem::parallel", "locus_service::pool"];

/// Modules whose atomics (types *and* orderings) the race analysis
/// audits.
pub const ATOMICS_MODULES: &[&str] =
    &["locus_shmem::parallel", "locus_shmem::shard", "locus_router::engine", "locus_service::pool"];

/// Crates whose library code may read wall clocks and the environment:
/// the experiment harness measures real time by design. Binaries are
/// always allowed.
pub const WALLCLOCK_CRATES: &[&str] = &["locus_bench"];

/// Crate whose library paths must degrade instead of panicking.
pub const NO_PANIC_CRATE: &str = "locus_msgpass";

/// Modules allowed to contain `unsafe`. Deliberately empty: the
/// workspace is 100% safe Rust, and any future exception must be added
/// here explicitly (and justify itself in review).
pub const UNSAFE_MODULES: &[&str] = &[];

/// One lexed file with everything a rule needs.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a Path,
    /// Resolved module identity.
    pub module: &'a ModInfo,
    /// The token stream.
    pub toks: &'a Tokens<'a>,
    /// Indices (into `toks.toks()`) of non-comment tokens.
    pub code: &'a [usize],
    /// Per-token flag: inside a `#[cfg(test)]` item span.
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    /// Text of the `ci`-th code token (raw-identifier prefix stripped).
    pub fn ctext(&self, ci: usize) -> &str {
        self.toks.ident_text(&self.toks.toks()[self.code[ci]])
    }

    /// Kind of the `ci`-th code token.
    pub fn ckind(&self, ci: usize) -> TokKind {
        self.toks.toks()[self.code[ci]].kind
    }

    /// Whether the `ci`-th code token sits inside a test span.
    pub fn in_test(&self, ci: usize) -> bool {
        self.in_test[self.code[ci]]
    }

    /// Whether code tokens starting at `ci` spell `pat` exactly
    /// (identifiers and puncts by text; `::` is a single token).
    pub fn seq(&self, ci: usize, pat: &[&str]) -> bool {
        ci + pat.len() <= self.code.len()
            && pat.iter().enumerate().all(|(k, want)| self.ctext(ci + k) == *want)
    }

    /// 1-based source line of the `ci`-th code token.
    pub fn line(&self, ci: usize) -> usize {
        self.toks.line_of(self.toks.toks()[self.code[ci]].start)
    }

    /// Pushes a violation anchored at code token `ci`.
    pub fn flag(&self, ci: usize, rule: &'static str, out: &mut Vec<Violation>) {
        let line = self.line(ci);
        out.push(Violation {
            file: self.rel.to_path_buf(),
            line,
            rule,
            excerpt: self.toks.line_text(line).to_string(),
        });
    }

    /// Whether this module is in an allowlist.
    pub fn module_in(&self, allow: &[&str]) -> bool {
        allow.iter().any(|m| self.module.module == *m)
    }
}

/// One lint rule.
pub trait Rule {
    /// Stable rule identifier (used in findings, suppressions, and the
    /// baseline).
    fn name(&self) -> &'static str;
    /// One-line description for `lint --rules` and the README table.
    fn describe(&self) -> &'static str;
    /// Scans one file, pushing violations.
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>);
}

/// Every registered rule, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(concurrency::NoSeqCst),
        Box::new(concurrency::OrderingAudit),
        Box::new(concurrency::NoRawSpawn),
        Box::new(concurrency::NoUnauditedAtomics),
        Box::new(panics::NoUnwrap),
        Box::new(panics::NoPanicInProtocol),
        Box::new(determinism::Determinism),
        Box::new(unsafe_code::UnsafeConfinement),
    ]
}

/// Computes per-token `#[cfg(test)]` spans.
///
/// Whenever a `#[cfg(test)]` (or `#[cfg(any/all(.., test, ..))]`)
/// attribute is seen, the attribute, any further attributes, and the
/// item they decorate — up to the matching `}` of its first top-level
/// brace, or its terminating `;` — are marked as test tokens. This is
/// exact where the old heuristic was positional: a test module in the
/// middle of a file exempts only itself, and library code *after* a
/// test module is scanned again.
pub fn test_spans(toks: &Tokens<'_>, code: &[usize]) -> Vec<bool> {
    let all = toks.toks();
    let mut in_test = vec![false; all.len()];
    let text = |ci: usize| toks.ident_text(&all[code[ci]]);
    let mut ci = 0usize;
    while ci < code.len() {
        // An attribute is `#` `[` ... `]`; inner attributes (`#![..]`)
        // never gate an item, skip them.
        if !(text(ci) == "#" && ci + 1 < code.len() && text(ci + 1) == "[") {
            ci += 1;
            continue;
        }
        let (attr_end, is_cfg_test) = scan_attr(toks, code, ci + 1);
        if !is_cfg_test {
            ci = attr_end;
            continue;
        }
        let start_tok = code[ci];
        // Skip any further attributes between the cfg gate and the item.
        let mut k = attr_end;
        while k < code.len() && text(k) == "#" && k + 1 < code.len() && text(k + 1) == "[" {
            k = scan_attr(toks, code, k + 1).0;
        }
        // The item ends at the first `;` at base depth, or at the
        // matching `}` of the first base-depth `{`.
        let mut depth = 0i32;
        while k < code.len() {
            match text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    let mut braces = 1i32;
                    k += 1;
                    while k < code.len() && braces > 0 {
                        match text(k) {
                            "{" => braces += 1,
                            "}" => braces -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                ";" if depth <= 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end_tok = if k < code.len() { code[k] } else { all.len() };
        for flag in in_test.iter_mut().take(end_tok).skip(start_tok) {
            *flag = true;
        }
        ci = k;
    }
    in_test
}

/// Scans an attribute starting at the `[` code index; returns (index
/// one past the closing `]`, whether the attribute is a cfg gate
/// mentioning `test`).
fn scan_attr(toks: &Tokens<'_>, code: &[usize], open: usize) -> (usize, bool) {
    let all = toks.toks();
    let text = |ci: usize| toks.ident_text(&all[code[ci]]);
    let mut depth = 0i32;
    let mut k = open;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while k < code.len() {
        match text(k) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (k + 1, saw_cfg && saw_test);
                }
            }
            "cfg" => saw_cfg = true,
            "test" => saw_test = true,
            _ => {}
        }
        k += 1;
    }
    (k, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn spans(src: &str) -> (Vec<String>, Vec<bool>) {
        let toks = lex(src).expect("lexes");
        let code: Vec<usize> = (0..toks.toks().len())
            .filter(|&i| {
                !matches!(toks.toks()[i].kind, TokKind::LineComment | TokKind::BlockComment)
            })
            .collect();
        let in_test = test_spans(&toks, &code);
        let texts = code.iter().map(|&i| toks.text(&toks.toks()[i]).to_string()).collect();
        let flags = code.iter().map(|&i| in_test[i]).collect();
        (texts, flags)
    }

    #[test]
    fn test_module_span_is_exact() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }\nfn after() {}\n";
        let (texts, flags) = spans(src);
        let tagged: Vec<&str> =
            texts.iter().zip(&flags).filter(|(_, &f)| f).map(|(t, _)| t.as_str()).collect();
        assert!(tagged.contains(&"mod"));
        assert!(tagged.contains(&"tests"));
        // Library code before AND after the module stays scanned.
        let after_pos = texts.iter().rposition(|t| t == "after").expect("after exists");
        assert!(!flags[after_pos], "code after a test module must not be exempt");
        let lib_pos = texts.iter().position(|t| t == "lib").expect("lib exists");
        assert!(!flags[lib_pos]);
    }

    #[test]
    fn cfg_test_on_single_items_and_semicolon_items() {
        let (texts, flags) = spans("#[cfg(test)]\nuse helper::thing;\nfn real() {}\n");
        let thing = texts.iter().position(|t| t == "thing").expect("thing");
        let real = texts.iter().position(|t| t == "real").expect("real");
        assert!(flags[thing]);
        assert!(!flags[real]);
    }

    #[test]
    fn cfg_all_test_counts_and_other_attrs_do_not() {
        let (texts, flags) = spans(
            "#[cfg(all(test, feature = \"x\"))]\nmod gated { }\n#[cfg(feature = \"y\")]\nmod kept { }\n",
        );
        let gated = texts.iter().position(|t| t == "gated").expect("gated");
        let kept = texts.iter().position(|t| t == "kept").expect("kept");
        assert!(flags[gated]);
        assert!(!flags[kept]);
    }

    #[test]
    fn stacked_attributes_stay_inside_the_span() {
        let (texts, flags) =
            spans("#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() {} }\nfn out() {}\n");
        let x = texts.iter().position(|t| t == "x").expect("x");
        let out = texts.iter().position(|t| t == "out").expect("out");
        assert!(flags[x]);
        assert!(!flags[out]);
    }
}
