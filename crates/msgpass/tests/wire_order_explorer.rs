//! The recovery explorer: wire order × victim × fault kind. The claim
//! under test is that a single node fault, with reliability and recovery
//! on, never strands a wire.
//!
//! `small` at 4 processors runs in the `Circuit::reordered` wire order of
//! each seed, under `locus_msgpass::chaos` with a checkpoint every 4
//! wires. Every node, the coordinator included, is the victim of each
//! fault kind halfway through its own routing span: 12 runs a seed, a
//! superset of the chaos study's four named scenarios. No run may
//! degrade, and none may need the watchdog to route a wire.
//!
//! Until the control plane counted grants, 9 runs deadlocked: a
//! `Finished` or `StatusReport` that crossed a `Reassign` let the
//! coordinator end the run while the grantee still held wires, and the
//! watchdog routed them. Their seeds are [`ONCE_DEGRADED`], which the
//! debug build runs too.
//!
//! A release build runs seeds 0–2 999 (36 000 faulty runs, about 16 s on
//! a 2-core x86-64 host). A debug build runs seeds 0–79 plus the
//! formerly degraded seeds (1 056 faulty runs, about 4 s):
//! `cargo test --release -p locus-msgpass --test wire_order_explorer`
//! runs the whole sweep.

use locus_circuit::presets;
use locus_msgpass::chaos::{self, FaultKind};
use locus_msgpass::run_msgpass;

/// The seeds of the runs that deadlocked before grants were counted.
const ONCE_DEGRADED: &[u64] = &[72, 639, 796, 921, 923, 1160, 1205, 1268, 2234];

const PROCS: usize = 4;

#[test]
fn single_faults_strand_wires_only_on_the_pinned_orders() {
    let seeds = if cfg!(debug_assertions) { 80 } else { 3_000 };
    let small = presets::small();
    let mut degraded = Vec::new();
    for seed in (0..seeds).chain(ONCE_DEGRADED.iter().copied().filter(|&seed| seed >= seeds)) {
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
                    Some(r) => {
                        degraded.push(format!("{case}: {:?} {:?}", r.kind, r.unrouted_wires))
                    }
                    None => assert_eq!(out.watchdog_recoveries, 0, "{case}"),
                }
                assert_eq!(out.routes.len(), circuit.wire_count(), "{case}");
                assert!(out.routes.iter().all(|r| !r.cells().is_empty()), "{case}");
            }
        }
    }
    assert!(degraded.is_empty(), "runs degraded:\n{}", degraded.join("\n"));
}
