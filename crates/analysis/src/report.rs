//! Machine-readable JSON for the analysis reports.
//!
//! Each report is a [`Json`] tree handed to the workspace's one JSON
//! writer, [`locus_obs::export::json_document`]; this module only says
//! which keys carry which values. Keys are stable API.

use locus_obs::export::{json_document, Json};

use crate::classify::addr_cell;
use crate::harness::AnalysisReport;
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
    fn staleness_report_json_is_valid() {
        let s = StalenessReport::build(&[]);
        let json = staleness_report_json(&s, "msgpass-sender", 4);
        validate_json(&json).expect("staleness report must be valid JSON");
        assert!(json.contains("\"audits\": 0"));
    }
}
