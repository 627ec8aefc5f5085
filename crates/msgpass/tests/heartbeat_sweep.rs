//! Fault-free recovery runs at every heartbeat period `validate` accepts,
//! from the bound up to the clean completion time `T`: the recovery
//! study's base (`locus_msgpass::chaos`) with a checkpoint every 4 wires,
//! and no fault at all. Nobody should be declared dead.
//!
//! On `small`, and on every circuit at 16 processors, that holds from the
//! bound on. Below the bound the coordinator spends more of each period
//! on heartbeats than it has, and the run livelocks on false deaths, so
//! `validate` rejects those periods. At 4 and 9 processors the three
//! larger circuits still declare
//! nodes dead at some accepted periods: a node's receive overhead for a
//! whole inbox is charged in one step, so a step that takes in several
//! region-sized update packets outlasts the suspect window. `FALSE_DEATHS`
//! is that set exactly, so the test fails if it grows or shrinks; a fix
//! empties it.
//!
//! Heartbeats step by a quarter from the bound: 306 runs, about 8 s in a
//! debug build and 1 s in release.

use locus_circuit::{presets, Circuit};
use locus_msgpass::{chaos, run_msgpass};

/// The shortest heartbeat period `validate` accepts at `n_procs`.
fn bound(n_procs: usize) -> u64 {
    let (mut lo, mut hi) = (1u64, 1 << 40);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if chaos::recovering(n_procs, mid, 4).validate().is_ok() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `(circuit, processors, heartbeat ns, nodes declared dead)` of every
/// run in the sweep that declares anyone dead.
#[rustfmt::skip]
const FALSE_DEATHS: &[(&str, usize, u64, u64)] = &[
    ("bnrE-synthetic", 4, 1000000, 12),
    ("bnrE-synthetic", 4, 1250000, 11),
    ("bnrE-synthetic", 4, 1562500, 10),
    ("bnrE-synthetic", 4, 1953125, 8),
    ("bnrE-synthetic", 4, 2441406, 34),
    ("bnrE-synthetic", 4, 3051757, 12),
    ("bnrE-synthetic", 4, 3814696, 9),
    ("bnrE-synthetic", 4, 4768370, 5),
    ("bnrE-synthetic", 9, 1984000, 9),
    ("bnrE-synthetic", 9, 2480000, 3),
    ("MDC-synthetic", 4, 1000000, 7),
    ("MDC-synthetic", 4, 1250000, 7),
    ("MDC-synthetic", 4, 1562500, 7),
    ("MDC-synthetic", 4, 1953125, 7),
    ("MDC-synthetic", 4, 2441406, 10),
    ("MDC-synthetic", 4, 3051757, 9),
    ("MDC-synthetic", 4, 3814696, 23),
    ("MDC-synthetic", 4, 4768370, 10),
    ("MDC-synthetic", 4, 5960462, 12),
    ("MDC-synthetic", 4, 7450577, 9),
    ("MDC-synthetic", 9, 1984000, 26),
    ("MDC-synthetic", 9, 2480000, 26),
    ("MDC-synthetic", 9, 3100000, 2),
    ("MDC-synthetic", 9, 3875000, 23),
    ("powerlaw-synthetic", 4, 1000000, 10),
    ("powerlaw-synthetic", 4, 1250000, 11),
    ("powerlaw-synthetic", 4, 1562500, 12),
    ("powerlaw-synthetic", 4, 1953125, 13),
    ("powerlaw-synthetic", 4, 2441406, 9),
    ("powerlaw-synthetic", 4, 3051757, 5),
    ("powerlaw-synthetic", 9, 1984000, 9),
];

#[test]
fn a_fault_free_run_declares_nobody_dead_at_any_accepted_heartbeat() {
    let circuits: [Circuit; 4] =
        [presets::small(), presets::bnr_e(), presets::mdc(), presets::power_law()];
    let mut deaths = Vec::new();
    let mut runs = 0;
    for circuit in &circuits {
        for n_procs in [4, 9, 16] {
            let t_ns = (run_msgpass(circuit, chaos::base(n_procs)).time_secs * 1e9) as u64;
            let mut heartbeat_ns = bound(n_procs);
            assert!(chaos::recovering(n_procs, heartbeat_ns - 1, 4).validate().is_err());
            while heartbeat_ns <= t_ns {
                let out = run_msgpass(circuit, chaos::recovering(n_procs, heartbeat_ns, 4));
                assert!(out.degraded.is_none(), "{} P={n_procs} {heartbeat_ns} ns", circuit.name);
                let dead = out.recovery.nodes_declared_dead;
                if dead > 0 {
                    deaths.push((circuit.name.as_str(), n_procs, heartbeat_ns, dead));
                }
                runs += 1;
                heartbeat_ns += heartbeat_ns / 4;
            }
        }
    }
    let table: String = deaths.iter().map(|d| format!("    {d:?},\n")).collect();
    assert_eq!(deaths, FALSE_DEATHS, "{runs} runs; the false deaths now are:\n{table}");
}
