//! Machine-readable JSON for the analysis reports.
//!
//! Each report is a [`Json`] tree handed to the workspace's one JSON
//! writer, [`locus_obs::export::json_document`]; this module only says
//! which keys carry which values. Keys are stable API.

use locus_obs::export::{json_document, Json};

use crate::baseline::{Ratchet, RatchetRow};
use crate::classify::addr_cell;
use crate::harness::AnalysisReport;
use crate::lint::LintOutcome;
use crate::race::RaceKind;
use crate::staleness::StalenessReport;

/// Serializes a race-analysis report.
pub fn race_report_json(r: &AnalysisReport) -> String {
    let pairs = r.races.iter().map(|c| {
        let cell = addr_cell(c.pair.addr, r.grids);
        let kind = match c.pair.kind {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
        };
        let class = if c.is_benign() { "benign" } else { "quality-affecting" };
        let wire = c.pair.read_ref().map(|r| r.wire).unwrap_or(c.pair.second.wire);
        Json::Object(vec![
            ("addr", c.pair.addr.into()),
            ("channel", cell.channel.into()),
            ("x", cell.x.into()),
            ("epoch", c.pair.epoch.into()),
            ("procs", Json::Array(vec![c.pair.first.proc.into(), c.pair.second.proc.into()])),
            ("kind", kind.into()),
            ("wire", wire.into()),
            ("class", class.into()),
            ("reason", c.reason.into()),
        ])
    });
    let tally = |key: &'static str, id: u32, total: usize, benign: usize| {
        Json::Object(vec![(key, id.into()), ("races", total.into()), ("benign", benign.into())])
    };
    json_document(&[
        ("engine", r.engine.as_str().into()),
        ("circuit", r.circuit.as_str().into()),
        ("procs", r.procs.into()),
        ("refs", r.refs.into()),
        ("epochs", r.epochs.into()),
        ("synchronized_pairs", r.synchronized_pairs.into()),
        (
            "races",
            Json::Object(vec![
                ("total", r.races.len().into()),
                ("benign", r.benign_count().into()),
                ("quality_affecting", r.quality_count().into()),
            ]),
        ),
        ("pairs", Json::Array(pairs.collect())),
        (
            "per_channel",
            Json::Array(
                r.per_channel.iter().map(|&(c, n, b)| tally("channel", c.into(), n, b)).collect(),
            ),
        ),
        (
            "per_wire",
            Json::Array(r.per_wire.iter().map(|&(w, n, b)| tally("wire", w, n, b)).collect()),
        ),
    ])
}

/// Serializes a staleness report.
pub fn staleness_report_json(s: &StalenessReport, engine: &str, procs: usize) -> String {
    json_document(&[
        ("engine", engine.into()),
        ("procs", procs.into()),
        ("audits", s.audits.into()),
        ("auditing_procs", s.procs.into()),
        ("max_diverged_cells", s.max_diverged_cells.into()),
        ("mean_diverged_cells", Json::Float(s.mean_diverged_cells, Some(3))),
        ("max_abs_divergence", s.max_abs_divergence.into()),
        ("total_abs_divergence", s.total_abs_divergence.into()),
        ("max_mean_age_ns", s.max_mean_age_ns.into()),
        ("mean_age_ns_p50", s.age_hist.quantile(0.50).into()),
        ("mean_age_ns_p99", s.age_hist.quantile(0.99).into()),
        ("diverged_cells_p50", s.cells_hist.quantile(0.50).into()),
        ("diverged_cells_p99", s.cells_hist.quantile(0.99).into()),
    ])
}

/// Serializes a lint run plus its ratchet verdict — the CI artifact
/// (`lint-findings.json`).
pub fn lint_findings_json(outcome: &LintOutcome, ratchet: &Ratchet) -> String {
    let floor = match ratchet.floor_breach {
        Some((current, floor)) => {
            vec![("held", false.into()), ("current", current.into()), ("baseline", floor.into())]
        }
        None => vec![("held", true.into()), ("slack", ratchet.floor_slack.into())],
    };
    let findings = outcome.violations.iter().map(|v| {
        Json::Object(vec![
            ("file", v.file.to_string_lossy().into_owned().into()),
            ("line", v.line.into()),
            ("rule", v.rule.into()),
            ("excerpt", v.excerpt.as_str().into()),
        ])
    });
    let cells = |rows: &[RatchetRow]| {
        let cell = |row: &RatchetRow| {
            Json::Object(vec![
                ("file", row.file.as_str().into()),
                ("rule", row.rule.as_str().into()),
                ("baselined", row.baselined.into()),
                ("current", row.current.into()),
            ])
        };
        Json::Array(rows.iter().map(cell).collect())
    };
    json_document(&[
        ("files_scanned", outcome.files_scanned.into()),
        ("suppressed", outcome.suppressed.into()),
        ("ratchet_passes", ratchet.passes().into()),
        ("floor", Json::Object(floor)),
        ("findings", Json::Array(findings.collect())),
        ("new", cells(&ratchet.new)),
        ("fixed", cells(&ratchet.fixed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;
    use locus_obs::export::validate_json;
    use locus_router::RouterParams;

    #[test]
    fn race_report_json_is_valid_and_carries_headline_keys() {
        // A 2-proc emulator run on the tiny circuit gives a small but
        // real report (possibly with zero races — both shapes must be
        // valid JSON).
        let report = crate::harness::analyze_engine(
            &presets::small(),
            "shmem-emul",
            2,
            RouterParams::default(),
        )
        .expect("emul analysis runs");
        let json = race_report_json(&report);
        validate_json(&json).expect("race report must be valid JSON");
        for key in ["\"engine\"", "\"synchronized_pairs\"", "\"quality_affecting\"", "\"pairs\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn lint_findings_json_is_valid_for_clean_and_dirty_runs() {
        use crate::baseline::{ratchet, Baseline};
        use crate::lint::Violation;
        use std::path::PathBuf;

        let clean = LintOutcome { files_scanned: 90, suppressed: 1, violations: Vec::new() };
        let base = Baseline::from_outcome(&clean);
        let json = lint_findings_json(&clean, &ratchet(&base, &clean));
        validate_json(&json).expect("clean findings must be valid JSON");
        assert!(json.contains("\"ratchet_passes\": true"));

        let dirty = LintOutcome {
            files_scanned: 90,
            suppressed: 0,
            violations: vec![Violation {
                file: PathBuf::from("crates/demo/src/lib.rs"),
                line: 7,
                rule: "no-unwrap",
                excerpt: "let x = \"quoted \\\" excerpt\".parse().unwrap();".to_string(),
            }],
        };
        let json = lint_findings_json(&dirty, &ratchet(&base, &dirty));
        validate_json(&json).expect("dirty findings (with quotes in excerpt) must be valid JSON");
        assert!(json.contains("\"ratchet_passes\": false"));
        assert!(json.contains("\"rule\": \"no-unwrap\""));
    }

    #[test]
    fn control_characters_in_excerpts_and_paths_are_escaped() {
        use crate::baseline::{ratchet, Baseline};
        use crate::lint::Violation;
        use std::path::PathBuf;

        // `line_text` trims only the ends of a flagged line, so an
        // interior tab reaches the excerpt as is.
        let dirty = LintOutcome {
            files_scanned: 1,
            suppressed: 0,
            violations: vec![Violation {
                file: PathBuf::from("crates/de\u{1}mo/src/lib.rs"),
                line: 3,
                rule: "no-unwrap",
                excerpt: "let x =\tf().unwrap();".to_string(),
            }],
        };
        let base = Baseline::from_outcome(&dirty);
        let json = lint_findings_json(&dirty, &ratchet(&Baseline::default(), &dirty));
        validate_json(&json).expect("control characters must be escaped");
        assert!(json.contains("let x =\\tf().unwrap();"), "{json}");
        assert!(json.contains("crates/de\\u0001mo/src/lib.rs"), "{json}");
        validate_json(&base.render()).expect("the baseline goes through the same writer");
    }

    #[test]
    fn staleness_report_json_is_valid() {
        let s = StalenessReport::build(&[]);
        let json = staleness_report_json(&s, "msgpass-sender", 4);
        validate_json(&json).expect("staleness report must be valid JSON");
        assert!(json.contains("\"audits\": 0"));
    }
}
