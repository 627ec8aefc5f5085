//! One study per experiment id (see `DESIGN.md` §3).
//!
//! Every study is deterministic and parameterized on the circuit and
//! processor count, so tests run reduced "quick" configurations while
//! the CLI reproduces the full paper settings. A study returns the
//! engine's own outcome (`MsgPassOutcome`, `MemoryOutcome`, `EngineRun`)
//! keyed by its sweep coordinate, with any value derived from more than
//! one run beside it; [`crate::catalog`] reads each column off it.
//!
//! Sweep-style studies additionally take a [`Harness`]: independent
//! sweep points run concurrently on its scoped-thread pool, and because
//! every swept engine is deterministic the outcomes are identical
//! whichever harness executes them (`Harness::serial()` vs
//! `Harness::auto()`).

use crate::Harness;
use locus_circuit::Circuit;
use locus_coherence::{
    memory_registry, traffic_by_backend, traffic_by_line_size, MemoryConfig, MemoryModelEntry,
    MemoryOutcome, Trace, TrafficStats,
};
use locus_msgpass::{run_msgpass, MsgPassConfig, MsgPassOutcome, PacketStructure, UpdateSchedule};
use locus_router::locality::locality_measure;
use locus_router::{
    assign, AssignmentStrategy, EngineRun, LocalityMeasure, QualityMetrics, RegionMap,
    RouterParams, SequentialRouter,
};
use locus_shmem::{ShmemConfig, ShmemEmulator};
use locusroute::engines;

/// The paper's default message-passing machine size.
pub const PAPER_PROCS: usize = 16;

/// **Table 1** — network traffic and quality using sender-initiated
/// updates: sweep `SendRmtData ∈ {2,5,10}` × `SendLocData ∈ {1,5,10,20}`.
/// Returns `(SendRmtData, SendLocData, outcome)`.
pub(crate) fn table1(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(u32, u32, MsgPassOutcome)> {
    let points: Vec<(u32, u32)> =
        [2u32, 5, 10].iter().flat_map(|&rmt| [1u32, 5, 10, 20].map(|loc| (rmt, loc))).collect();
    harness.map(points, |(rmt, loc)| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_initiated(rmt, loc));
        let out = run_msgpass(circuit, cfg);
        assert!(!out.deadlocked, "table1 run ({rmt},{loc}) deadlocked");
        (rmt, loc, out)
    })
}

/// **Table 2** — non-blocking receiver-initiated updates: sweep
/// `ReqLocData ∈ {1,2,10}` × `ReqRmtData ∈ {5,10,30}`. Returns
/// `(ReqLocData, ReqRmtData, outcome)`.
pub(crate) fn table2(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(u32, u32, MsgPassOutcome)> {
    let points: Vec<(u32, u32)> =
        [1u32, 2, 10].iter().flat_map(|&loc| [5u32, 10, 30].map(|rmt| (loc, rmt))).collect();
    harness.map(points, |(loc, rmt)| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::receiver_initiated(loc, rmt));
        let out = run_msgpass(circuit, cfg);
        assert!(!out.deadlocked, "table2 run ({loc},{rmt}) deadlocked");
        (loc, rmt, out)
    })
}

/// **§5.1.3 (blocking)** — blocking vs non-blocking receiver-initiated
/// strategies on the same update schedules: quality about equal, blocking
/// execution time up to ~75% larger. Returns `((ReqLocData, ReqRmtData),
/// non-blocking, blocking)`.
pub(crate) fn blocking_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<((u32, u32), MsgPassOutcome, MsgPassOutcome)> {
    harness.map(vec![(1u32, 5u32), (2, 10), (10, 30)], |(loc, rmt)| {
        let nb = run_msgpass(
            circuit,
            MsgPassConfig::new(n_procs, UpdateSchedule::receiver_initiated(loc, rmt)),
        );
        let bl = run_msgpass(
            circuit,
            MsgPassConfig::new(n_procs, UpdateSchedule::receiver_initiated_blocking(loc, rmt)),
        );
        assert!(!nb.deadlocked && !bl.deadlocked);
        ((loc, rmt), nb, bl)
    })
}

/// **§5.1.3 (mixed)** — the paper's mixed schedule
/// (`SendLocData=5, SendRmtData=2, ReqLocData=1, ReqRmtData=5`) against
/// pure sender- and pure receiver-initiated schedules: mixed should beat
/// both on occupancy factor using roughly half the sender traffic.
/// Returns `(strategy label, outcome)`.
pub(crate) fn mixed_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(&'static str, MsgPassOutcome)> {
    let cases: Vec<(&str, UpdateSchedule)> = vec![
        ("sender (2,5)", UpdateSchedule::sender_initiated(2, 5)),
        ("receiver (1,5)", UpdateSchedule::receiver_paper()),
        ("mixed (5,2,1,5)", UpdateSchedule::mixed_paper()),
    ];
    harness.map(cases, |(label, schedule)| {
        let out = run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule));
        assert!(!out.deadlocked);
        (label, out)
    })
}

/// Collects the shared-memory reference trace the coherence analyses use.
pub(crate) fn shared_memory_trace(circuit: &Circuit, n_procs: usize) -> Trace {
    let out = ShmemEmulator::new(circuit, ShmemConfig::new(n_procs).with_trace()).run();
    out.trace.expect("trace collection enabled")
}

/// **Table 3** — shared-memory traffic as a function of cache line size
/// with infinite caches: one traced emulator run replayed at each line
/// size through one registered memory backend ([`traffic_by_backend`]).
/// `"bus-wbi"` is the paper's Write-Back-with-Invalidate bus, `"bus-wt"`
/// the write-through ablation the CLI's `--memory` flag exposes.
pub(crate) fn table3_backend(
    circuit: &Circuit,
    n_procs: usize,
    line_sizes: &[u32],
    backend: &str,
) -> Result<Vec<(u32, MemoryOutcome)>, String> {
    traffic_by_backend(backend, &shared_memory_trace(circuit, n_procs), line_sizes)
}

/// The cache line size the memory study prices every backend at (the
/// paper's Table 3 headline point).
pub(crate) const MEMORY_STUDY_LINE_SIZE: u32 = 8;

/// **Memory-system study** — every backend in [`memory_registry`] replays
/// the *same* shared-memory reference trace per circuit (one traced
/// emulator run each, so all backends see byte-identical input) priced
/// over the same mesh machine. Returns `(circuit name, outcome)` per
/// circuit and backend: protocol data traffic, invalidation transport
/// (broadcast vs point-to-point vs none), and FIFO vs criticality-aware
/// queueing of the rip-up/commit requests.
///
/// A machine some backend cannot price (no processors, more than a
/// holder bitmask names, a line size that is not a power of two) is an
/// error, reported before any trace is collected.
pub(crate) fn memory_study(
    harness: &Harness,
    circuits: &[&Circuit],
    n_procs: usize,
    line_size: u32,
) -> Result<Vec<(String, MemoryOutcome)>, String> {
    let n = u32::try_from(n_procs).map_err(|_| format!("{n_procs} processors is out of range"))?;
    let machine = MemoryConfig::paper(n, line_size);
    for entry in memory_registry() {
        entry.build(machine)?;
    }
    let mut rows = Vec::new();
    for &circuit in circuits {
        let trace = shared_memory_trace(circuit, n_procs);
        let entries: Vec<&'static MemoryModelEntry> = memory_registry().iter().collect();
        rows.extend(harness.map(entries, |entry| {
            let model = entry.build(machine).expect("checked above, on every backend");
            (circuit.name.clone(), model.run(&trace))
        }));
    }
    Ok(rows)
}

/// **Table 4** — effect of the wire-assignment strategy on the
/// message-passing implementation (both circuits, sender-initiated
/// schedule, plus receiver-initiated traffic for §5.3.1's −63%
/// comparison). Returns `(circuit name, method, sender, receiver)`.
pub(crate) fn table4(
    harness: &Harness,
    circuits: &[&Circuit],
    n_procs: usize,
) -> Vec<(String, &'static str, MsgPassOutcome, MsgPassOutcome)> {
    let points: Vec<(&Circuit, &str, AssignmentStrategy)> = circuits
        .iter()
        .flat_map(|&c| AssignmentStrategy::table45_rows().into_iter().map(move |(m, s)| (c, m, s)))
        .collect();
    harness.map(points, |(circuit, method, strategy)| {
        let sender = run_msgpass(
            circuit,
            MsgPassConfig::new(n_procs, UpdateSchedule::sender_paper()).with_assignment(strategy),
        );
        let receiver = run_msgpass(
            circuit,
            MsgPassConfig::new(n_procs, UpdateSchedule::receiver_paper()).with_assignment(strategy),
        );
        assert!(!sender.deadlocked && !receiver.deadlocked);
        (circuit.name.clone(), method, sender, receiver)
    })
}

/// **Table 5** — effect of the wire-assignment strategy on the
/// shared-memory implementation. Returns `(circuit name, method,
/// quality, bus traffic at 8-byte lines)`; the trace is dropped.
pub(crate) fn table5(
    harness: &Harness,
    circuits: &[&Circuit],
    n_procs: usize,
) -> Vec<(String, &'static str, QualityMetrics, TrafficStats)> {
    let points: Vec<(&Circuit, &str, AssignmentStrategy)> = circuits
        .iter()
        .flat_map(|&c| AssignmentStrategy::table45_rows().into_iter().map(move |(m, s)| (c, m, s)))
        .collect();
    harness.map(points, |(circuit, method, strategy)| {
        let cfg = ShmemConfig::new(n_procs).with_trace().with_static_assignment(strategy);
        let out = ShmemEmulator::new(circuit, cfg).run();
        let trace = out.trace.expect("trace enabled");
        let stats = traffic_by_line_size(&trace, &[8]).remove(0).1;
        (circuit.name.clone(), method, out.quality, stats)
    })
}

/// **Table 6** — effect of the number of processors (sender-initiated
/// schedule); quality degrades, time scales, traffic peaks then falls.
/// Returns `(procs, outcome, speedup)`, the speedup computed as the
/// paper does: relative to the two-processor run, multiplied by two.
pub(crate) fn table6(
    harness: &Harness,
    circuit: &Circuit,
    procs: &[usize],
) -> Vec<(usize, MsgPassOutcome, f64)> {
    let outcomes: Vec<(usize, MsgPassOutcome)> = harness.map(procs.to_vec(), |p| {
        let out = run_msgpass(circuit, MsgPassConfig::new(p, UpdateSchedule::sender_paper()));
        assert!(!out.deadlocked, "table6 run P={p} deadlocked");
        (p, out)
    });
    let t2 = outcomes
        .iter()
        .find(|(p, _)| *p == 2)
        .map(|(_, o)| o.time_secs)
        .unwrap_or_else(|| outcomes[0].1.time_secs);
    outcomes
        .into_iter()
        .map(|(p, out)| {
            let speedup = t2 / out.time_secs * 2.0;
            (p, out, speedup)
        })
        .collect()
}

/// **§5.3.3** — the locality measure over assignment strategies and
/// processor counts (computed on the sequential routing solution, so the
/// measure reflects the circuit + assignment, not update noise). Returns
/// `(circuit name, method, procs, measure)`.
pub(crate) fn locality_study(
    harness: &Harness,
    circuits: &[&Circuit],
    proc_counts: &[usize],
) -> Vec<(String, &'static str, usize, LocalityMeasure)> {
    let per_circuit = harness.map(circuits.to_vec(), |circuit| {
        let solution = SequentialRouter::new(circuit, RouterParams::default()).run();
        let mut rows = Vec::new();
        for &p in proc_counts {
            let regions = RegionMap::new(circuit.channels, circuit.grids, p);
            for (method, strategy) in [
                ("round robin", AssignmentStrategy::RoundRobin),
                ("ThresholdCost = inf.", AssignmentStrategy::Locality { threshold_cost: None }),
            ] {
                let a = assign(circuit, &regions, strategy);
                let lm = locality_measure(&solution.routes, &a.proc_of_wire, &regions);
                rows.push((circuit.name.clone(), method, p, lm));
            }
        }
        rows
    });
    per_circuit.into_iter().flatten().collect()
}

/// The `(registry engine, display label)` pairs `compare_paradigms`
/// runs, in paper order.
pub const COMPARE_ENGINES: [(&str, &str); 3] = [
    ("shmem-emul", "shared memory (WBI, 8B lines)"),
    ("msgpass-sender", "message passing, sender initiated (2,10)"),
    ("msgpass-receiver", "message passing, receiver initiated (1,5)"),
];

/// **§5.2** — the headline comparison: shared memory (best quality, most
/// traffic) vs sender-initiated (≈10× less traffic) vs receiver-initiated
/// (≈10× less again). Driven entirely through the engine registry — one
/// traffic-measured run per registered paradigm. Returns `(label, run)`.
pub(crate) fn compare_paradigms(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(&'static str, EngineRun)> {
    harness.map(COMPARE_ENGINES.to_vec(), |(name, label)| {
        let run = engines::run(name, circuit, &RouterParams::default(), n_procs, true)
            .expect("the default parameters fit every compared engine");
        (label, run)
    })
}

/// **Ablation (§4.3.1)** — the three update-packet structures the paper
/// discusses: bounding box (chosen), full region, wire-based events.
/// Every ablation returns `(variant label, outcome)`.
pub(crate) fn structures_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(String, MsgPassOutcome)> {
    let schedule = UpdateSchedule::sender_paper();
    let variants = vec![
        ("bounding box (paper's choice)", PacketStructure::BoundingBox),
        ("full region", PacketStructure::FullRegion),
        ("wire-based events", PacketStructure::WireBased),
    ];
    harness.map(variants, |(label, st)| {
        let out = run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_structure(st));
        assert!(!out.deadlocked, "structure {label} deadlocked");
        (label.to_string(), out)
    })
}

/// **Ablation** — candidate channel overshoot: how far two-bend VHV
/// candidates may detour outside the pin bounding box (DESIGN.md §6).
pub(crate) fn overshoot_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(String, MsgPassOutcome)> {
    harness.map(vec![0u16, 1, 2], |ov| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_paper())
            .with_params(RouterParams::default().with_channel_overshoot(ov));
        (format!("overshoot = {ov}"), run_msgpass(circuit, cfg))
    })
}

/// **Ablation** — network contention on vs off: how much of the
/// execution time the wormhole channel-blocking model accounts for
/// (evaluated on the chattiest sender schedule).
pub(crate) fn contention_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(String, MsgPassOutcome)> {
    let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_initiated(2, 1));
    harness.map(vec![true, false], |modelled| {
        if modelled {
            ("contention modelled".to_string(), run_msgpass(circuit, cfg))
        } else {
            let mesh = cfg.mesh_config().without_contention();
            let out = locus_msgpass::run_msgpass_with_mesh(circuit, cfg, mesh)
                .unwrap_or_else(|msg| panic!("contention study: {msg}"));
            ("contention disabled".to_string(), out)
        }
    })
}

/// **Ablation (§4.2)** — static vs dynamic wire distribution: the paper
/// rejected the dynamic scheme because wire requests are only served
/// between wires; this measures what that choice cost.
pub(crate) fn distribution_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<(String, MsgPassOutcome)> {
    let schedule = UpdateSchedule::sender_paper();
    harness.map(vec![false, true], |dynamic| {
        if dynamic {
            let out =
                run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_dynamic_wires());
            ("dynamic distribution (1 iter)".to_string(), out)
        } else {
            let params = RouterParams::default().with_iterations(1);
            let out =
                run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_params(params));
            ("static assignment (1 iter)".to_string(), out)
        }
    })
}

/// The schedules the resilience study sweeps: the paper's two headline
/// update strategies.
fn fault_study_schedules() -> [(&'static str, UpdateSchedule); 2] {
    [
        ("sender(2,10)", UpdateSchedule::sender_paper()),
        ("receiver(1,5)", UpdateSchedule::receiver_paper()),
    ]
}

/// **Resilience study** — uniform packet loss (0–20%) × update schedule
/// with the end-to-end reliability protocol enabled: how much repair
/// traffic, extra time, and replica staleness does an unreliable mesh
/// cost, and does solution quality survive? The `loss_bp = 0` rows run
/// the *unmodified* protocol (no reliability framing) and reproduce the
/// fault-free baseline exactly. Returns `(schedule label, loss in basis
/// points, outcome)`.
pub(crate) fn faults_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
    losses_bp: &[u32],
) -> Vec<(&'static str, u32, MsgPassOutcome)> {
    use locus_mesh::FaultPlan;
    let points: Vec<(&'static str, UpdateSchedule, u32)> = fault_study_schedules()
        .into_iter()
        .flat_map(|(name, schedule)| losses_bp.iter().map(move |&bp| (name, schedule, bp)))
        .collect();
    harness.map(points, |(name, schedule, loss_bp)| {
        let mut cfg = MsgPassConfig::new(n_procs, schedule);
        if loss_bp > 0 {
            // Seed varies per point so rows are independent experiments;
            // both are fixed constants, so the table is reproducible.
            let seed = 0xFA_0175 + loss_bp as u64;
            cfg = cfg.with_faults(FaultPlan::uniform_loss(seed, loss_bp)).with_reliability();
        }
        let out = run_msgpass(circuit, cfg);
        assert!(!out.deadlocked, "faults run {name}@{loss_bp}bp must terminate cleanly");
        (name, loss_bp, out)
    })
}

/// The loss sweep of the full resilience study: 0–20% uniform loss.
pub(crate) const FAULT_LOSSES_BP: &[u32] = &[0, 200, 500, 1000, 2000];

/// The reduced sweep for `--quick` runs and CI smoke tests.
pub(crate) const FAULT_LOSSES_BP_QUICK: &[u32] = &[0, 1000];

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    const QUICK_PROCS: usize = 4;

    /// Unit tests exercise the serial harness; harness parity is covered
    /// by `tests/parallel_harness.rs`.
    fn h() -> Harness {
        Harness::serial()
    }

    #[test]
    fn table1_shape_and_traffic_ordering() {
        let c = presets::small();
        let rows = table1(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 12);
        // Within a SendRmtData group, traffic falls as SendLocData grows.
        for g in rows.chunks(4) {
            assert!(
                g[0].2.mbytes >= g[3].2.mbytes,
                "loc=1 traffic {} must be >= loc=20 traffic {}",
                g[0].2.mbytes,
                g[3].2.mbytes
            );
        }
    }

    #[test]
    fn table2_shape() {
        let c = presets::small();
        let rows = table2(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 9);
        // Traffic falls as ReqRmtData grows (fewer requests).
        for g in rows.chunks(3) {
            assert!(g[0].2.mbytes >= g[2].2.mbytes);
        }
    }

    #[test]
    fn blocking_study_blocking_never_faster() {
        let c = presets::small();
        for (schedule, nonblocking, blocking) in blocking_study(&h(), &c, QUICK_PROCS) {
            assert!(blocking.time_secs >= nonblocking.time_secs, "schedule {schedule:?}");
        }
    }

    #[test]
    fn table3_traffic_shape() {
        let c = presets::small();
        let rows = table3_backend(&c, QUICK_PROCS, &[4, 8, 16, 32], "bus-wbi").expect("registered");
        assert_eq!(rows.len(), 4);
        // The robust Table 3 properties on synthetic circuits: long lines
        // cost more than mid-size lines (false-sharing growth), and the
        // traffic is write-dominated (§5.2: >80% of bytes from writes).
        // See EXPERIMENTS.md for why the 4-byte point can sit above the
        // 8-byte point here (spatial merging of clustered route writes).
        let mbytes = |i: usize| rows[i].1.stats.mbytes();
        assert!(
            mbytes(3) > mbytes(1),
            "32B lines {} must out-traffic 8B lines {}",
            mbytes(3),
            mbytes(1)
        );
        for (line_size, out) in &rows {
            let write_fraction = out.stats.write_fraction();
            assert!(
                write_fraction > 0.6,
                "line {line_size}: write fraction {write_fraction} too low"
            );
        }
    }

    #[test]
    fn table3_bus_wt_out_traffics_wbi_and_unknown_backends_are_errors() {
        let c = presets::small();
        let wbi = table3_backend(&c, QUICK_PROCS, &[8], "bus-wbi").expect("registered");
        let wt = table3_backend(&c, QUICK_PROCS, &[8], "bus-wt").expect("registered");
        let (wbi, wt) = (wbi[0].1.stats.mbytes(), wt[0].1.stats.mbytes());
        assert!(
            wt > wbi,
            "write-through pays a bus word on every store, so it must out-traffic WBI: \
             {wt} vs {wbi}"
        );
        assert!(table3_backend(&c, QUICK_PROCS, &[8], "nope").is_err());
    }

    #[test]
    fn memory_study_covers_every_backend_and_priority_never_hurts_critical() {
        let c = presets::small();
        let rows = memory_study(&h(), &[&c], QUICK_PROCS, MEMORY_STUDY_LINE_SIZE).expect("valid");
        assert_eq!(rows.len(), locus_coherence::memory_registry().len());
        let by = |name: &str| &rows.iter().find(|(_, out)| out.backend == name).unwrap().1;
        // WBI-semantics backends agree on data traffic; transport differs.
        assert_eq!(by("bus-wbi").stats.mbytes(), by("directory").stats.mbytes());
        assert!(
            by("directory").invalidation_traffic_bytes <= by("bus-wbi").invalidation_traffic_bytes
        );
        // DLS caches nothing, so it has no coherence events or
        // invalidation transport at all.
        assert_eq!(by("dls").coherence_events(), 0);
        assert_eq!(by("dls").invalidation_traffic_bytes, 0);
        for (_, out) in &rows {
            assert!(
                out.critical_first.critical.mean_wait_ns() <= out.fifo.critical.mean_wait_ns(),
                "{}: critical-first must not slow critical requests: {out:?}",
                out.backend
            );
        }
        let again = memory_study(&h(), &[&c], QUICK_PROCS, MEMORY_STUDY_LINE_SIZE).expect("valid");
        assert_eq!(rows, again, "the study must be exactly reproducible");
    }

    #[test]
    fn absurd_memory_machines_are_errors_not_panics() {
        let c = presets::tiny();
        // 65 processors overflow the bus and directory holder bitmasks;
        // the study says so before it collects a trace.
        let err = memory_study(&h(), &[&c], 65, MEMORY_STUDY_LINE_SIZE).expect_err("65 procs");
        assert!(err.contains("64"), "{err}");
        for line_size in [0, 12] {
            let err = memory_study(&h(), &[&c], QUICK_PROCS, line_size).expect_err("bad line");
            assert!(err.contains("power of two"), "{err}");
            let err = table3_backend(&c, QUICK_PROCS, &[8, line_size], "bus-wt").expect_err("bad");
            assert!(err.contains("power of two"), "{err}");
        }
    }

    #[test]
    fn table4_and_5_cover_both_circuits_and_methods() {
        let a = presets::small();
        let b = presets::tiny();
        let rows4 = table4(&h(), &[&a, &b], QUICK_PROCS);
        assert_eq!(rows4.len(), 8);
        let rows5 = table5(&h(), &[&a], QUICK_PROCS);
        assert_eq!(rows5.len(), 4);
    }

    #[test]
    fn table6_speedup_improves_with_processors() {
        let c = presets::small();
        let rows = table6(&h(), &c, &[2, 4]);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].2 - 2.0).abs() < 1e-9, "P=2 speedup is 2 by definition");
        assert!(rows[1].1.time_secs < rows[0].1.time_secs, "4 procs must be faster than 2");
        assert!(rows[1].2 > 2.0);
    }

    #[test]
    fn locality_study_round_robin_worse_than_local() {
        let c = presets::small();
        let rows = locality_study(&h(), &[&c], &[4]);
        let rr = rows.iter().find(|r| r.1.contains("robin")).unwrap();
        let local = rows.iter().find(|r| r.1.contains("inf")).unwrap();
        assert!(local.3.mean_hops < rr.3.mean_hops);
    }

    #[test]
    fn compare_paradigms_traffic_ordering() {
        let c = presets::small();
        let rows = compare_paradigms(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 3);
        // Shared memory must move more bytes than sender-initiated, which
        // must move more than receiver-initiated (§5.2, §6).
        let mbytes = |i: usize| rows[i].1.mbytes.expect("every compared engine measures traffic");
        assert!(mbytes(0) > mbytes(1));
        assert!(mbytes(1) > mbytes(2));
    }

    #[test]
    fn structures_study_orders_traffic() {
        let c = presets::small();
        let rows = structures_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 3);
        let bbox = &rows[0].1;
        let full = &rows[1].1;
        // §4.3.1: the full-region structure "uses a large number of
        // bytes"; the bounding-box scheme reduces traffic relative to it.
        assert!(full.mbytes > bbox.mbytes, "full {} vs bbox {}", full.mbytes, bbox.mbytes);
    }

    #[test]
    fn overshoot_study_zero_examines_less_work() {
        let c = presets::small();
        let rows = overshoot_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 3);
        // More overshoot = more candidates = more modelled time.
        assert!(rows[0].1.time_secs <= rows[2].1.time_secs);
    }

    #[test]
    fn contention_study_runs_and_contention_counter_responds() {
        let c = presets::small();
        let rows = contention_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 2);
        // Message timing feeds back into the adaptive application, so
        // total time and packet counts may move either way; the solid
        // invariant is the contention counter itself.
        let (with, without) = (&rows[0].1, &rows[1].1);
        assert!(with.net.contention_ns > 0, "chatty schedule must contend");
        assert_eq!(without.net.contention_ns, 0);
    }

    #[test]
    fn distribution_study_dynamic_not_faster() {
        let c = presets::small();
        let rows = distribution_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 2);
        let (fixed, dynamic) = (&rows[0].1, &rows[1].1);
        assert!(
            dynamic.time_secs >= fixed.time_secs * 0.9,
            "dynamic should not significantly beat static: {} vs {}",
            dynamic.time_secs,
            fixed.time_secs
        );
        let packets = |out: &MsgPassOutcome| out.packets.total_packets();
        assert!(packets(dynamic) > packets(fixed), "requests/grants add packets");
    }

    #[test]
    fn faults_study_rows_are_deterministic_and_loss_costs_traffic() {
        let c = presets::small();
        let rows = faults_study(&h(), &c, QUICK_PROCS, FAULT_LOSSES_BP_QUICK);
        assert_eq!(rows.len(), 4, "two schedules x two loss points");
        for pair in rows.chunks(2) {
            let ((_, clean_bp, clean), (_, _, lossy)) = (&pair[0], &pair[1]);
            assert_eq!(*clean_bp, 0);
            assert_eq!(clean.net.packets_dropped, 0);
            assert_eq!(
                clean.reliability.retransmits, 0,
                "fault-free rows run the unmodified protocol"
            );
            assert!(lossy.net.packets_dropped > 0, "10% loss must drop packets: {:?}", lossy.net);
            assert!(lossy.reliability.retransmits > 0, "drops must force retransmissions");
            assert!(clean.degraded.is_none() && lossy.degraded.is_none());
        }
        // `MsgPassOutcome` has no `PartialEq` (its cost array has none);
        // its `Debug` form names every field and every float exactly.
        let again = faults_study(&h(), &c, QUICK_PROCS, FAULT_LOSSES_BP_QUICK);
        assert_eq!(
            format!("{rows:?}"),
            format!("{again:?}"),
            "the study must be exactly reproducible"
        );
    }
}
