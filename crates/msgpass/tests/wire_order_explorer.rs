//! The recovery explorer's first axis: wire order. The claim under test
//! is that a single node fault, with reliability and recovery on, never
//! strands a wire.
//!
//! `small` at 4 processors, its wires put in the SplitMix64 Fisher–Yates
//! order of each seed, goes through the four fault scenarios of the
//! chaos grid, built as the host-time benchmark's `chaos_ops` builds
//! them. A clean probe without recovery measures the completion time
//! `T`. The heartbeat is max(T/50, 1 ms), a peer is suspected after 8
//! beats, and a checkpoint is taken every 4 wires. Worker faults hit the
//! longest-routing worker halfway through its own routing span, and the
//! coordinator crash hits node 0 halfway through its span.
//!
//! Some orders still deadlock with late wires unrouted, which the
//! watchdog then routes. `DEGRADED` is that set exactly, so the test
//! fails if it grows or shrinks; the fix to recovery empties it. Every
//! other run must finish on its own with every wire routed.
//!
//! A release build runs seeds 0–2 999 (15 000 runs, about 6 s). A debug
//! build runs seeds 0–249 plus the pinned seeds (about 6 s):
//! `cargo test --release -p locus-msgpass --test wire_order_explorer`
//! runs the whole sweep.

use locus_circuit::{presets, Circuit, Wire};
use locus_mesh::{FaultPlan, NodeFault};
use locus_msgpass::{
    run_msgpass, DegradedKind, MsgPassConfig, MsgPassOutcome, RecoveryConfig, UpdateSchedule,
};

/// `(seed, scenario, unrouted wires)` of every run in the sweep that
/// degrades. Each ends in `DegradedKind::Deadlock`.
#[rustfmt::skip]
const DEGRADED: &[(u64, &str, &[u32])] = &[
    (72, "worker-crash", &[97, 107, 114]),
    (639, "stall", &[92, 101, 107]),
    (796, "worker-crash", &[70, 85, 95, 107]),
    (923, "worker-crash", &[75, 102, 108, 116]),
    (1160, "worker-crash", &[109]),
    (1268, "worker-crash", &[115]),
    (2234, "worker-crash", &[96, 103]),
];

const PROCS: usize = 4;

/// Seeds below this run in every build; the rest only in release.
const DEBUG_SEEDS: u64 = 250;

const RELEASE_SEEDS: u64 = 3_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `circuit` with its wires in a Fisher–Yates order drawn from `seed`.
fn reordered(circuit: &Circuit, seed: u64) -> Circuit {
    let mut order: Vec<usize> = (0..circuit.wire_count()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    let wires = order
        .iter()
        .enumerate()
        .map(|(id, &from)| Wire::new(id, circuit.wires[from].pins.clone()))
        .collect();
    Circuit::new(circuit.name.clone(), circuit.channels, circuit.grids, wires)
        .expect("a reordered valid circuit is valid")
}

/// Sender-initiated (2,10), one iteration: the chaos grid's base.
fn base() -> MsgPassConfig {
    let config = MsgPassConfig::new(PROCS, UpdateSchedule::sender_paper());
    config.with_params(config.params.with_iterations(1))
}

/// The four fault scenarios, derived from the clean `probe`.
fn scenarios(probe: &MsgPassOutcome) -> [(&'static str, MsgPassConfig); 4] {
    let t_ns = (probe.time_secs * 1e9) as u64;
    let spans_ns: Vec<u64> =
        probe.routing_done_secs_by_proc.iter().map(|s| (s * 1e9) as u64).collect();
    let recovery = RecoveryConfig {
        checkpoint_every: 4,
        heartbeat_ns: (t_ns / 50).max(1_000_000),
        suspect_after: 8,
        ..RecoveryConfig::default()
    };
    let worker = spans_ns
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(p, ns)| (ns, std::cmp::Reverse(p)))
        .map_or(1, |(p, _)| p as u32);
    let half = |span: u64| (span / 2).max(1);
    let at_ns = half(spans_ns[worker as usize]);
    let clean = base().with_reliability().with_recovery_config(recovery);
    let faulty = |node, fault| clean.with_faults(FaultPlan::none().with_node_fault(node, fault));
    [
        ("worker-crash", faulty(worker, NodeFault::Crash { at_ns })),
        (
            "worker-restart",
            faulty(worker, NodeFault::CrashRestart { at_ns, downtime_ns: t_ns / 20 }),
        ),
        ("coordinator-crash", faulty(0, NodeFault::Crash { at_ns: half(spans_ns[0]) })),
        ("stall", faulty(worker, NodeFault::Stall { at_ns, factor: 4, duration_ns: t_ns / 4 })),
    ]
}

#[test]
fn single_faults_strand_wires_only_on_the_pinned_orders() {
    let seeds = if cfg!(debug_assertions) { DEBUG_SEEDS } else { RELEASE_SEEDS };
    let pinned = DEGRADED.iter().map(|&(seed, ..)| seed).filter(|&seed| seed >= seeds);
    let small = presets::small();
    let mut degraded: Vec<(u64, &str, Vec<u32>)> = Vec::new();
    for seed in (0..seeds).chain(pinned) {
        let circuit = reordered(&small, seed);
        let probe = run_msgpass(&circuit, base());
        assert!(probe.degraded.is_none(), "seed {seed}: the clean probe degraded");
        for (scenario, config) in scenarios(&probe) {
            let out = run_msgpass(&circuit, config);
            let case = format!("seed {seed} {scenario}");
            match out.degraded {
                Some(reason) => {
                    assert_ne!(reason.kind, DegradedKind::EventLimit, "{case}");
                    degraded.push((seed, scenario, reason.unrouted_wires));
                }
                None => assert_eq!(out.watchdog_recoveries, 0, "{case}"),
            }
            assert_eq!(out.routes.len(), circuit.wire_count(), "{case}");
            assert!(out.routes.iter().all(|r| !r.cells().is_empty()), "{case}");
        }
    }
    let expected: Vec<(u64, &str, Vec<u32>)> =
        DEGRADED.iter().map(|&(seed, scenario, wires)| (seed, scenario, wires.to_vec())).collect();
    assert_eq!(degraded, expected, "the degraded (seed, scenario, unrouted wires) set moved");
}
