//! The committed lint baseline and the ratchet against it.
//!
//! A new rule should be able to land even when the tree is not yet
//! clean under it: its pre-existing hits go into the committed baseline
//! (`lint-baseline.json` at the workspace root, regenerated with
//! `lint --write-baseline`), and CI fails only on findings *beyond*
//! the baseline. Counts are keyed per `(file, rule)` rather than per
//! line, so unrelated edits that shift line numbers do not churn the
//! ratchet; a count may only ever go down (fixing) or hold — going up
//! is a new finding and fails the run.
//!
//! The baseline also records the number of files the workspace walk
//! scanned. That number replaces the old hardcoded file-count floor:
//! the walker must never scan *fewer* files than the committed
//! baseline, which catches a broken walk (the failure mode where the
//! lint silently passes because it stopped looking) without demanding
//! a manual bump on every new file.

use std::collections::BTreeMap;

use locus_obs::export::{json_document, Json};

use crate::lint::LintOutcome;

/// The committed baseline: scanned-file floor plus per-(file, rule)
/// finding counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Files the walk scanned when the baseline was written.
    pub files_scanned: usize,
    /// Baselined finding counts, keyed by (workspace-relative file,
    /// rule).
    pub counts: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Captures a baseline from one lint run.
    pub fn from_outcome(outcome: &LintOutcome) -> Baseline {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for v in &outcome.violations {
            *counts
                .entry((v.file.to_string_lossy().into_owned(), v.rule.to_string()))
                .or_default() += 1;
        }
        Baseline { files_scanned: outcome.files_scanned, counts }
    }

    /// Serializes the committed JSON form.
    pub fn render(&self) -> String {
        let finding = |((file, rule), count): (&(String, String), &usize)| {
            Json::Object(vec![
                ("file", file.as_str().into()),
                ("rule", rule.as_str().into()),
                ("count", (*count).into()),
            ])
        };
        json_document(&[
            ("files_scanned", self.files_scanned.into()),
            ("findings", Json::Array(self.counts.iter().map(finding).collect())),
        ])
    }

    /// Parses the committed JSON form (the exact shape [`render`]
    /// emits; this is not a general JSON parser).
    ///
    /// [`render`]: Baseline::render
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let files_scanned = field_usize(text, "files_scanned")
            .ok_or_else(|| "baseline: missing files_scanned".to_string())?;
        let mut counts = BTreeMap::new();
        let mut rest = text;
        while let Some(pos) = rest.find("\"file\"") {
            rest = &rest[pos..];
            let file =
                field_str(rest, "file").ok_or_else(|| "baseline: bad file entry".to_string())?;
            let rule =
                field_str(rest, "rule").ok_or_else(|| "baseline: bad rule entry".to_string())?;
            let count = field_usize(rest, "count")
                .ok_or_else(|| "baseline: bad count entry".to_string())?;
            counts.insert((file, rule), count);
            rest = &rest[6..]; // past this "file" key; find() locates the next entry
        }
        Ok(Baseline { files_scanned, counts })
    }
}

/// Extracts `"key": <integer>` after the first occurrence of `key`.
fn field_usize(text: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<string>"` after the first occurrence of `key`.
fn field_str(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// One (file, rule) cell where current and baselined counts differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatchetRow {
    /// Workspace-relative file.
    pub file: String,
    /// Rule identifier.
    pub rule: String,
    /// Count in the committed baseline.
    pub baselined: usize,
    /// Count in the current run.
    pub current: usize,
}

/// The ratchet verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct Ratchet {
    /// Cells whose count grew (or appeared): each is a CI failure.
    pub new: Vec<RatchetRow>,
    /// Cells whose count shrank (or vanished): the baseline is stale
    /// and can be regenerated tighter.
    pub fixed: Vec<RatchetRow>,
    /// Set when the walk scanned fewer files than the baseline floor:
    /// (current, floor).
    pub floor_breach: Option<(usize, usize)>,
    /// Files scanned beyond the recorded floor (advisory only).
    pub floor_slack: usize,
}

impl Ratchet {
    /// Whether the run holds the ratchet (no new findings, floor held).
    pub fn passes(&self) -> bool {
        self.new.is_empty() && self.floor_breach.is_none()
    }
}

/// Diffs one lint run against the committed baseline.
pub fn ratchet(baseline: &Baseline, outcome: &LintOutcome) -> Ratchet {
    let current = Baseline::from_outcome(outcome);
    let mut r = Ratchet::default();
    for ((file, rule), &count) in &current.counts {
        let base = baseline.counts.get(&(file.clone(), rule.clone())).copied().unwrap_or(0);
        if count > base {
            r.new.push(RatchetRow {
                file: file.clone(),
                rule: rule.clone(),
                baselined: base,
                current: count,
            });
        }
    }
    for ((file, rule), &base) in &baseline.counts {
        let count = current.counts.get(&(file.clone(), rule.clone())).copied().unwrap_or(0);
        if count < base {
            r.fixed.push(RatchetRow {
                file: file.clone(),
                rule: rule.clone(),
                baselined: base,
                current: count,
            });
        }
    }
    if outcome.files_scanned < baseline.files_scanned {
        r.floor_breach = Some((outcome.files_scanned, baseline.files_scanned));
    } else {
        r.floor_slack = outcome.files_scanned - baseline.files_scanned;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Violation;
    use std::path::PathBuf;

    fn outcome(files: usize, findings: &[(&str, &'static str)]) -> LintOutcome {
        LintOutcome {
            files_scanned: files,
            suppressed: 0,
            violations: findings
                .iter()
                .map(|&(file, rule)| Violation {
                    file: PathBuf::from(file),
                    line: 1,
                    rule,
                    excerpt: String::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let o =
            outcome(90, &[("a.rs", "no-unwrap"), ("a.rs", "no-unwrap"), ("b.rs", "determinism")]);
        let b = Baseline::from_outcome(&o);
        let parsed = Baseline::parse(&b.render()).expect("own output parses");
        assert_eq!(parsed, b);
        assert_eq!(parsed.counts[&("a.rs".to_string(), "no-unwrap".to_string())], 2);
        // The empty baseline roundtrips too.
        let empty = Baseline::from_outcome(&outcome(88, &[]));
        assert_eq!(Baseline::parse(&empty.render()).expect("parses"), empty);
    }

    #[test]
    fn new_findings_fail_the_ratchet() {
        let base = Baseline::from_outcome(&outcome(88, &[("a.rs", "no-unwrap")]));
        // Same count: passes. One more: fails with the delta.
        assert!(ratchet(&base, &outcome(88, &[("a.rs", "no-unwrap")])).passes());
        let grown = ratchet(&base, &outcome(88, &[("a.rs", "no-unwrap"), ("a.rs", "no-unwrap")]));
        assert!(!grown.passes());
        assert_eq!(grown.new.len(), 1);
        assert_eq!((grown.new[0].baselined, grown.new[0].current), (1, 2));
        // A finding in a fresh file fails too.
        assert!(!ratchet(&base, &outcome(88, &[("z.rs", "no-seqcst")])).passes());
    }

    #[test]
    fn fixes_are_reported_but_pass() {
        let base = Baseline::from_outcome(&outcome(88, &[("a.rs", "no-unwrap")]));
        let r = ratchet(&base, &outcome(89, &[]));
        assert!(r.passes());
        assert_eq!(r.fixed.len(), 1);
        assert_eq!(r.floor_slack, 1);
    }

    #[test]
    fn file_floor_never_decreases() {
        let base = Baseline::from_outcome(&outcome(88, &[]));
        let r = ratchet(&base, &outcome(87, &[]));
        assert!(!r.passes());
        assert_eq!(r.floor_breach, Some((87, 88)));
        assert!(ratchet(&base, &outcome(88, &[])).passes());
        assert!(ratchet(&base, &outcome(120, &[])).passes(), "growth is fine");
    }
}
