//! Tests of `analyze` as the harness between a named engine and the race
//! analysis: the engine's traced run goes to `detect` and
//! `classify_races`, and the report carries what they found.

mod tests {
    use crate::catalog::{analyze, RunCfg};
    use crate::report::Report;
    use crate::Harness;
    use locus_obs::export::Json;

    /// `analyze` on the small synthetic circuit (`--quick`).
    fn analyze_small(engine: &str, procs: usize) -> Report {
        let cfg = RunCfg { harness: Harness::with_threads(1), quick: true, memory_backend: None };
        analyze(&cfg, engine, Some(procs)).expect("a traced engine analyses")
    }

    fn header<'a>(report: &'a Report, key: &str) -> &'a Json {
        let field = report.header.iter().find(|(k, _)| *k == key);
        &field.unwrap_or_else(|| panic!("the report has a '{key}' field")).1
    }

    fn count(report: &Report, key: &str) -> u64 {
        match header(report, key) {
            Json::UInt(n) => *n,
            other => panic!("'{key}' is a count, not {other}"),
        }
    }

    /// `(total, benign, quality_affecting)` of the report's races.
    fn races(report: &Report) -> (u64, u64, u64) {
        let Json::Object(fields) = header(report, "races") else { panic!("races is an object") };
        let get = |key| match fields.iter().find(|(k, _)| *k == key) {
            Some((_, Json::UInt(n))) => *n,
            _ => panic!("races has a '{key}' count"),
        };
        (get("total"), get("benign"), get("quality_affecting"))
    }

    #[test]
    fn sequential_trace_has_zero_races() {
        let report = analyze_small("sequential", 4);
        assert_eq!(header(&report, "engine"), &Json::from("sequential"));
        assert_eq!(count(&report, "procs"), 1, "sequential runs on one processor");
        assert_eq!(races(&report).0, 0, "single-processor trace can never race");
        assert_eq!(count(&report, "synchronized_pairs"), 0);
        assert!(count(&report, "refs") > 0);
    }

    #[test]
    fn one_processor_emulator_trace_is_race_free() {
        let report = analyze_small("shmem-emul", 1);
        assert_eq!(races(&report).0, 0);
    }

    #[test]
    fn emulator_races_appear_with_processors_and_are_classified() {
        let report = analyze_small("shmem-emul", 4);
        assert!(count(&report, "epochs") >= 1);
        let (total, benign, quality) = races(&report);
        assert!(total > 0, "4 logical procs sharing an unlocked array must produce race pairs");
        assert_eq!(benign + quality, total);
        let json = report.to_json();
        for table in ["per_channel", "per_wire"] {
            assert!(json.contains(&format!("\"{table}\": [\n    {{")), "{table} has no rows");
        }
    }
}
