//! The parallel sweep harness must be invisible in the results: every
//! engine is deterministic, so the report an experiment builds on the
//! scoped-thread pool must equal the serial one cell for cell, at any
//! thread count. Reports are compared rather than outcomes because an
//! outcome's cost array has no `PartialEq`.

use locus_bench::catalog::{self, Experiment, RunCfg};
use locus_bench::report::Report;
use locus_bench::Harness;
use proptest::prelude::*;

/// `experiment` at `--quick` settings on `harness`.
fn report(experiment: Experiment, harness: Harness) -> Report {
    let cfg = RunCfg { harness, quick: true, memory_backend: None };
    experiment(&cfg).expect("a quick experiment runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// The satellite property: the parallel-sweep Table 1 report equals
    /// the serial-sweep report for every pool size.
    #[test]
    fn table1_parallel_rows_equal_serial_rows(threads in 2usize..=8) {
        let serial = report(catalog::table1, Harness::serial());
        let parallel = report(catalog::table1, Harness::with_threads(threads));
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn multi_run_sweeps_are_harness_invariant() {
    for experiment in [catalog::table4, catalog::table6, catalog::blocking] {
        let serial = report(experiment, Harness::serial());
        assert_eq!(serial, report(experiment, Harness::with_threads(4)), "{}", serial.title);
    }
}

#[test]
fn compare_paradigms_is_harness_invariant_and_registry_complete() {
    let serial = report(catalog::compare, Harness::serial());
    assert_eq!(serial, report(catalog::compare, Harness::with_threads(3)));
    // One row per registry engine, labelled in `COMPARE_ENGINES` order.
    let json = serial.to_json();
    assert_eq!(json.matches("\"approach\"").count(), locus_bench::COMPARE_ENGINES.len());
    let at: Vec<usize> = locus_bench::COMPARE_ENGINES
        .iter()
        .map(|(_, label)| json.find(&format!("\"approach\": \"{label}\"")).expect("a row"))
        .collect();
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
}
