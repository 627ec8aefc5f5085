//! Property-based tests for the shared-memory engines over arbitrary
//! generated circuits.

use locus_circuit::{presets, CircuitGenerator, GeneratorConfig};
use locus_router::{AssignmentStrategy, CostArray, RouterParams, SequentialRouter};
use locus_shmem::{Scheduling, ShmemConfig, ShmemEmulator};
use proptest::prelude::*;

fn arb_circuit() -> impl Strategy<Value = locus_circuit::Circuit> {
    (3u16..7, 16u16..64, 4usize..30, any::<u64>()).prop_map(|(channels, grids, wires, seed)| {
        CircuitGenerator::new(GeneratorConfig::for_surface("prop", channels, grids, wires, seed))
            .generate()
    })
}

/// 0, 1, 3, 64, 65, `u64::MAX`, and every power of two below 2^`bits`.
fn edge(bits: u32) -> impl Strategy<Value = u64> {
    (0..bits + 4).prop_map(move |i| match i.checked_sub(bits) {
        None => 1 << i,
        Some(0) => 0,
        Some(1) => 3,
        Some(2) => 65,
        Some(_) => u64::MAX,
    })
}

/// [`edge`] values, half of them below 2^`bits`, where runs still fit.
fn edge_mostly_below(bits: u32) -> impl Strategy<Value = u64> {
    prop_oneof![edge(64), edge(bits)]
}

/// Every field of a `ShmemConfig` drawn from edge values. Iteration counts
/// are 0, 3, 65, 257, the powers of two up to 2^9, 2^63 and `usize::MAX`:
/// up to about 2^37 iterations of `tiny` are valid runs, too long to make
/// in a test.
fn arb_shmem_config() -> impl Strategy<Value = ShmemConfig> {
    let iterations = (0u32..16).prop_map(|i| match i {
        10 => 0,
        11 => 3,
        12 => 65,
        13 => 257,
        14 => 1 << 63,
        15 => usize::MAX,
        k => 1 << k,
    });
    let overshoot = edge(16).prop_map(|o| u16::try_from(o).unwrap_or(u16::MAX));
    let scheduling = prop_oneof![
        Just(Scheduling::DynamicLoop),
        Just(Scheduling::Static(AssignmentStrategy::RoundRobin)),
        Just(Scheduling::Static(AssignmentStrategy::Locality { threshold_cost: None })),
        edge(32).prop_map(|t| Scheduling::Static(AssignmentStrategy::Locality {
            threshold_cost: Some(u32::try_from(t).unwrap_or(u32::MAX))
        })),
    ];
    (edge_mostly_below(7), iterations, overshoot, scheduling).prop_map(
        |(n_procs, iterations, channel_overshoot, scheduling)| ShmemConfig {
            n_procs: n_procs as usize,
            params: RouterParams { iterations, channel_overshoot },
            scheduling,
            collect_trace: false,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A configuration is `Ok` or an error that names a field, never a
    /// panic; and every `Ok` runs `tiny`, traced and not, without an
    /// overflow (tests build with overflow checks).
    #[test]
    fn shmem_configs_build_or_fail_by_name_and_what_builds_runs(cfg in arb_shmem_config()) {
        const FIELDS: [&str; 2] = ["n_procs", "iterations"];
        let tiny = presets::tiny();
        for collect_trace in [false, true] {
            let cfg = ShmemConfig { collect_trace, ..cfg };
            let emulator = match ShmemEmulator::try_new(&tiny, cfg) {
                Ok(emulator) => emulator,
                Err(err) => {
                    prop_assert!(FIELDS.iter().any(|f| err.contains(f)), "{err}");
                    continue;
                }
            };
            let out = emulator.run();
            prop_assert_eq!(out.routes.len(), tiny.wire_count());
            let refs = out.work.cells_examined + out.work.cells_written;
            let trace = out.trace.map(|t| (t.refs().map(|r| r.time).is_sorted(), t.len() as u64));
            prop_assert_eq!(trace, collect_trace.then_some((true, refs)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The emulator conserves coverage on any circuit and processor
    /// count: the shared array equals the sum of the final routes.
    #[test]
    fn emulator_conserves_coverage(circuit in arb_circuit(), procs in 1usize..5) {
        let out = ShmemEmulator::new(&circuit, ShmemConfig::new(procs)).run();
        prop_assert_eq!(out.routes.len(), circuit.wire_count());
        let mut truth = CostArray::new(circuit.channels, circuit.grids);
        for r in &out.routes {
            truth.add_route(r);
        }
        prop_assert_eq!(truth.circuit_height(), out.quality.circuit_height);
    }

    /// P=1 emulation equals the sequential router for any circuit.
    #[test]
    fn emulator_single_proc_equivalence(circuit in arb_circuit()) {
        let out = ShmemEmulator::new(&circuit, ShmemConfig::new(1)).run();
        let seq = SequentialRouter::new(&circuit, RouterParams::default()).run();
        prop_assert_eq!(out.quality, seq.quality);
        prop_assert_eq!(out.routes, seq.routes);
    }

    /// Traces are time-sorted, stay within the shared region, and count
    /// exactly the work the emulator reports.
    #[test]
    fn trace_invariants(circuit in arb_circuit(), procs in 1usize..4) {
        let out = ShmemEmulator::new(&circuit, ShmemConfig::new(procs).with_trace()).run();
        let trace = out.trace.expect("trace requested");
        prop_assert!(trace.refs().map(|r| r.time).is_sorted());
        prop_assert_eq!(trace.write_count() as u64, out.work.cells_written);
        prop_assert_eq!(
            (trace.len() - trace.write_count()) as u64,
            out.work.cells_examined
        );
        let limit = circuit.channels as u32 * circuit.grids as u32 * 2;
        for r in trace.refs() {
            prop_assert!(r.addr < limit);
            prop_assert!((r.proc as usize) < procs);
        }
    }

    /// Emulated time shrinks (weakly) as processors are added — the
    /// barrier waits for the slowest, but total work is divided.
    #[test]
    fn emulated_time_monotone_in_procs(circuit in arb_circuit()) {
        let t1 = ShmemEmulator::new(&circuit, ShmemConfig::new(1)).run().time_secs;
        let t4 = ShmemEmulator::new(&circuit, ShmemConfig::new(4)).run().time_secs;
        prop_assert!(t4 <= t1 * 1.05, "t4 {t4} vs t1 {t1}");
    }
}
