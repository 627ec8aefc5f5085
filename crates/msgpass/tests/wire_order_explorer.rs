//! The recovery explorer: wire order × victim × fault kind. The claim
//! under test is that a single node fault, with reliability and recovery
//! on, never strands a wire.
//!
//! `small` at 4 processors runs in the `Circuit::reordered` wire order of
//! each seed, under `locus_msgpass::chaos` with a checkpoint every 4
//! wires. Every node, the coordinator included, is the victim of each
//! fault kind halfway through its own routing span: 12 runs a seed, a
//! superset of the chaos study's four named scenarios. Some runs still
//! deadlock, and the watchdog routes their late wires. `DEGRADED` is that
//! set exactly; the fix to recovery empties it.
//!
//! A release build runs seeds 0–2 999 (36 000 faulty runs, about 16 s on
//! a 2-core x86-64 host). A debug build runs seeds 0–79 plus the pinned
//! seeds (1 056 faulty runs, about 4 s):
//! `cargo test --release -p locus-msgpass --test wire_order_explorer`
//! runs the whole sweep.

use locus_circuit::presets;
use locus_msgpass::chaos::{self, FaultKind};
use locus_msgpass::{run_msgpass, DegradedKind};

/// `(seed, victim, fault kind, unrouted wires)` of every run in the sweep
/// that degrades. Each ends in `DegradedKind::Deadlock`. Victim 2 is the
/// longest-routing worker of its seed, so its seven runs are the chaos
/// study's `worker-crash` and `stall`.
#[rustfmt::skip]
const DEGRADED: &[(u64, u32, FaultKind, &[u32])] = &[
    (72, 2, FaultKind::Crash, &[97, 107, 114]),
    (639, 2, FaultKind::Stall, &[92, 101, 107]),
    (796, 2, FaultKind::Crash, &[70, 85, 95, 107]),
    (921, 1, FaultKind::Stall, &[100]),
    (923, 2, FaultKind::Crash, &[75, 102, 108, 116]),
    (1160, 2, FaultKind::Crash, &[109]),
    (1205, 3, FaultKind::Stall, &[98, 119]),
    (1268, 2, FaultKind::Crash, &[115]),
    (2234, 2, FaultKind::Crash, &[96, 103]),
];

const PROCS: usize = 4;

#[test]
fn single_faults_strand_wires_only_on_the_pinned_orders() {
    let seeds = if cfg!(debug_assertions) { 80 } else { 3_000 };
    let mut pinned: Vec<u64> = DEGRADED.iter().map(|&(seed, ..)| seed).collect();
    pinned.dedup();
    let small = presets::small();
    let mut degraded: Vec<(u64, u32, FaultKind, Vec<u32>)> = Vec::new();
    for seed in (0..seeds).chain(pinned.into_iter().filter(|&seed| seed >= seeds)) {
        let circuit = small.reordered(seed);
        let probe = run_msgpass(&circuit, chaos::base(PROCS));
        assert!(probe.degraded.is_none(), "seed {seed}: the clean probe degraded");
        let recovering = chaos::recovering(PROCS, chaos::heartbeat_ns(&probe), 4);
        for victim in 0..PROCS as u32 {
            for kind in [FaultKind::Crash, FaultKind::Restart, FaultKind::Stall] {
                let plan = chaos::fault(&probe, victim, kind, 0.5);
                let out = run_msgpass(&circuit, recovering.with_faults(plan));
                let case = format!("seed {seed} victim {victim} {kind:?}");
                match out.degraded {
                    Some(reason) => {
                        assert_ne!(reason.kind, DegradedKind::EventLimit, "{case}");
                        degraded.push((seed, victim, kind, reason.unrouted_wires));
                    }
                    None => assert_eq!(out.watchdog_recoveries, 0, "{case}"),
                }
                assert_eq!(out.routes.len(), circuit.wire_count(), "{case}");
                assert!(out.routes.iter().all(|r| !r.cells().is_empty()), "{case}");
            }
        }
    }
    let table: String = degraded.iter().map(|d| format!("    {d:?},\n")).collect();
    let found: Vec<_> = degraded.iter().map(|(s, v, k, w)| (*s, *v, *k, &w[..])).collect();
    assert_eq!(found, DEGRADED, "the degraded runs moved; they now are:\n{table}");
}
