//! One function per experiment id (see `DESIGN.md` §3).
//!
//! Every function is deterministic and parameterized on the circuit and
//! processor count, so tests run reduced "quick" configurations while
//! the CLI reproduces the full paper settings, and returns typed rows;
//! [`crate::catalog`] declares how each row type is printed.
//!
//! Sweep-style experiments additionally take a [`Harness`]: independent
//! sweep points run concurrently on its scoped-thread pool, and because
//! every swept engine is deterministic the rows are identical whichever
//! harness executes them (`Harness::serial()` vs `Harness::auto()`).

use crate::Harness;
use locus_circuit::Circuit;
use locus_coherence::{
    memory_registry, traffic_by_backend, traffic_by_line_size, MemoryConfig, MemoryModelEntry,
    MemoryOutcome, Trace,
};
use locus_msgpass::{run_msgpass, MsgPassConfig, PacketStructure, UpdateSchedule};
use locus_router::locality::locality_measure;
use locus_router::{assign, AssignmentStrategy, RegionMap, RouterParams, SequentialRouter};
use locus_shmem::{ShmemConfig, ShmemEmulator};
use locusroute::engines;

/// The paper's default message-passing machine size.
pub const PAPER_PROCS: usize = 16;

/// A row of an update-frequency sweep (Tables 1 and 2).
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateSweepRow {
    /// First swept parameter (Table 1: SendRmtData; Table 2: ReqLocData).
    pub a: u32,
    /// Second swept parameter (Table 1: SendLocData; Table 2: ReqRmtData).
    pub b: u32,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Occupancy factor.
    pub occupancy: u64,
    /// Payload megabytes transferred.
    pub mbytes: f64,
    /// Simulated execution time in seconds.
    pub time_s: f64,
}

impl UpdateSweepRow {
    fn from_outcome(a: u32, b: u32, out: &locus_msgpass::MsgPassOutcome) -> Self {
        UpdateSweepRow {
            a,
            b,
            ckt_ht: out.quality.circuit_height,
            occupancy: out.quality.occupancy_factor,
            mbytes: out.mbytes,
            time_s: out.time_secs,
        }
    }
}

/// **Table 1** — network traffic and quality using sender-initiated
/// updates: sweep `SendRmtData ∈ {2,5,10}` × `SendLocData ∈ {1,5,10,20}`.
pub fn table1(harness: &Harness, circuit: &Circuit, n_procs: usize) -> Vec<UpdateSweepRow> {
    let points: Vec<(u32, u32)> =
        [2u32, 5, 10].iter().flat_map(|&rmt| [1u32, 5, 10, 20].map(|loc| (rmt, loc))).collect();
    harness.map(points, |(rmt, loc)| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_initiated(rmt, loc));
        let out = run_msgpass(circuit, cfg);
        assert!(!out.deadlocked, "table1 run ({rmt},{loc}) deadlocked");
        UpdateSweepRow::from_outcome(rmt, loc, &out)
    })
}

/// **Table 2** — non-blocking receiver-initiated updates: sweep
/// `ReqLocData ∈ {1,2,10}` × `ReqRmtData ∈ {5,10,30}`.
pub(crate) fn table2(harness: &Harness, circuit: &Circuit, n_procs: usize) -> Vec<UpdateSweepRow> {
    let points: Vec<(u32, u32)> =
        [1u32, 2, 10].iter().flat_map(|&loc| [5u32, 10, 30].map(|rmt| (loc, rmt))).collect();
    harness.map(points, |(loc, rmt)| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::receiver_initiated(loc, rmt));
        let out = run_msgpass(circuit, cfg);
        assert!(!out.deadlocked, "table2 run ({loc},{rmt}) deadlocked");
        UpdateSweepRow::from_outcome(loc, rmt, &out)
    })
}

/// A blocking-vs-non-blocking comparison row (§5.1.3).
#[derive(Clone, Debug, PartialEq)]
pub struct BlockingRow {
    /// `(ReqLocData, ReqRmtData)` schedule.
    pub schedule: (u32, u32),
    /// Circuit height: non-blocking.
    pub ht_nonblocking: u64,
    /// Circuit height: blocking.
    pub ht_blocking: u64,
    /// Time (s): non-blocking.
    pub time_nonblocking: f64,
    /// Time (s): blocking.
    pub time_blocking: f64,
}

/// **§5.1.3 (blocking)** — blocking vs non-blocking receiver-initiated
/// strategies on the same update schedules: quality about equal, blocking
/// execution time up to ~75% larger.
pub fn blocking_study(harness: &Harness, circuit: &Circuit, n_procs: usize) -> Vec<BlockingRow> {
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
        BlockingRow {
            schedule: (loc, rmt),
            ht_nonblocking: nb.quality.circuit_height,
            ht_blocking: bl.quality.circuit_height,
            time_nonblocking: nb.time_secs,
            time_blocking: bl.time_secs,
        }
    })
}

/// A mixed-schedule comparison row (§5.1.3).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MixedRow {
    /// Strategy label.
    pub label: String,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Occupancy factor.
    pub occupancy: u64,
    /// Megabytes transferred.
    pub mbytes: f64,
    /// Execution time (s).
    pub time_s: f64,
}

/// **§5.1.3 (mixed)** — the paper's mixed schedule
/// (`SendLocData=5, SendRmtData=2, ReqLocData=1, ReqRmtData=5`) against
/// pure sender- and pure receiver-initiated schedules: mixed should beat
/// both on occupancy factor using roughly half the sender traffic.
pub(crate) fn mixed_study(harness: &Harness, circuit: &Circuit, n_procs: usize) -> Vec<MixedRow> {
    let cases: Vec<(&str, UpdateSchedule)> = vec![
        ("sender (2,5)", UpdateSchedule::sender_initiated(2, 5)),
        ("receiver (1,5)", UpdateSchedule::receiver_paper()),
        ("mixed (5,2,1,5)", UpdateSchedule::mixed_paper()),
    ];
    harness.map(cases, |(label, schedule)| {
        let out = run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule));
        assert!(!out.deadlocked);
        MixedRow {
            label: label.to_string(),
            ckt_ht: out.quality.circuit_height,
            occupancy: out.quality.occupancy_factor,
            mbytes: out.mbytes,
            time_s: out.time_secs,
        }
    })
}

/// A Table 3 row: coherence traffic at one cache line size.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LineSizeRow {
    /// Cache line size in bytes.
    pub line_size: u32,
    /// Megabytes transferred on the bus.
    pub mbytes: f64,
    /// Fraction of bytes caused by writes (§5.2 reports >0.8).
    pub write_fraction: f64,
    /// Invalidations performed.
    pub invalidations: u64,
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
) -> Result<Vec<LineSizeRow>, String> {
    let trace = shared_memory_trace(circuit, n_procs);
    let rows = traffic_by_backend(backend, &trace, line_sizes)?;
    Ok(rows
        .into_iter()
        .map(|(line_size, out)| LineSizeRow {
            line_size,
            mbytes: out.stats.mbytes(),
            write_fraction: out.stats.write_fraction(),
            invalidations: out.stats.invalidations,
        })
        .collect())
}

/// A row of the memory-system backend study: one registered backend
/// replaying one circuit's shared-memory trace.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MemoryRow {
    /// Circuit name.
    pub circuit: String,
    /// Registered backend name (`bus-wbi`, `bus-wt`, `directory`, `dls`).
    pub backend: &'static str,
    /// Megabytes of protocol data traffic.
    pub mbytes: f64,
    /// Fraction of bytes caused by writes.
    pub write_fraction: f64,
    /// Invalidations + refetches (0 for `dls`).
    pub coherence_events: u64,
    /// Megabytes of invalidation transport (bus rows price a broadcast,
    /// directory rows unicast point-to-point, `dls` sends none).
    pub inval_mbytes: f64,
    /// Total queueing wait under FIFO service, all requests (ns).
    pub fifo_wait_ns: u64,
    /// Mean wait of critical (rip-up/commit) requests under FIFO (ns).
    pub fifo_critical_mean_ns: f64,
    /// Mean wait of critical requests under critical-first service (ns).
    pub prio_critical_mean_ns: f64,
    /// Total critical wait removed by critical-first service (ns).
    pub critical_wait_saved_ns: u64,
}

fn memory_row(circuit: String, out: &MemoryOutcome) -> MemoryRow {
    MemoryRow {
        circuit,
        backend: out.backend,
        mbytes: out.stats.mbytes(),
        write_fraction: out.stats.write_fraction(),
        coherence_events: out.coherence_events(),
        inval_mbytes: out.invalidation_traffic_bytes as f64 / 1.0e6,
        fifo_wait_ns: out.fifo.all().total_wait_ns,
        fifo_critical_mean_ns: out.fifo.critical.mean_wait_ns(),
        prio_critical_mean_ns: out.critical_first.critical.mean_wait_ns(),
        critical_wait_saved_ns: out.critical_wait_saved_ns(),
    }
}

/// The cache line size the memory study prices every backend at (the
/// paper's Table 3 headline point).
pub(crate) const MEMORY_STUDY_LINE_SIZE: u32 = 8;

/// **Memory-system study** — every backend in [`memory_registry`] replays
/// the *same* shared-memory reference trace per circuit (one traced
/// emulator run each, so all backends see byte-identical input) priced
/// over the same mesh machine. Reports protocol data traffic,
/// invalidation transport (broadcast vs point-to-point vs none), and
/// FIFO vs criticality-aware queueing of the rip-up/commit requests.
///
/// A machine some backend cannot price (no processors, more than a
/// holder bitmask names, a line size that is not a power of two) is an
/// error, reported before any trace is collected.
pub(crate) fn memory_study(
    harness: &Harness,
    circuits: &[&Circuit],
    n_procs: usize,
    line_size: u32,
) -> Result<Vec<MemoryRow>, String> {
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
            memory_row(circuit.name.clone(), &model.run(&trace))
        }));
    }
    Ok(rows)
}

/// A Table 4 row: message-passing locality sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Table4Row {
    /// Circuit name.
    pub circuit: String,
    /// Assignment method label (paper wording).
    pub method: String,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Megabytes transferred (sender-initiated schedule).
    pub mbytes: f64,
    /// Execution time (s).
    pub time_s: f64,
    /// Megabytes transferred under the receiver-initiated schedule
    /// (§5.3.1's −63% observation concerns this strategy).
    pub mbytes_receiver: f64,
}

/// **Table 4** — effect of the wire-assignment strategy on the
/// message-passing implementation (both circuits, sender-initiated
/// schedule, plus receiver-initiated traffic for the −63% comparison).
pub fn table4(harness: &Harness, circuits: &[&Circuit], n_procs: usize) -> Vec<Table4Row> {
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
        Table4Row {
            circuit: circuit.name.clone(),
            method: method.to_string(),
            ckt_ht: sender.quality.circuit_height,
            mbytes: sender.mbytes,
            time_s: sender.time_secs,
            mbytes_receiver: receiver.mbytes,
        }
    })
}

/// A Table 5 row: shared-memory locality sweep.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Table5Row {
    /// Circuit name.
    pub circuit: String,
    /// Assignment method label.
    pub method: String,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Megabytes of bus traffic at 8-byte cache lines.
    pub mbytes: f64,
}

/// **Table 5** — effect of the wire-assignment strategy on the
/// shared-memory implementation (8-byte cache lines).
pub(crate) fn table5(harness: &Harness, circuits: &[&Circuit], n_procs: usize) -> Vec<Table5Row> {
    let points: Vec<(&Circuit, &str, AssignmentStrategy)> = circuits
        .iter()
        .flat_map(|&c| AssignmentStrategy::table45_rows().into_iter().map(move |(m, s)| (c, m, s)))
        .collect();
    harness.map(points, |(circuit, method, strategy)| {
        let cfg = ShmemConfig::new(n_procs).with_trace().with_static_assignment(strategy);
        let out = ShmemEmulator::new(circuit, cfg).run();
        let trace = out.trace.expect("trace enabled");
        let stats = traffic_by_line_size(&trace, &[8]).remove(0).1;
        Table5Row {
            circuit: circuit.name.clone(),
            method: method.to_string(),
            ckt_ht: out.quality.circuit_height,
            mbytes: stats.mbytes(),
        }
    })
}

/// A Table 6 row: processor-count scaling.
#[derive(Clone, Debug, PartialEq)]
pub struct Table6Row {
    /// Processor count.
    pub procs: usize,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Occupancy factor.
    pub occupancy: u64,
    /// Megabytes transferred.
    pub mbytes: f64,
    /// Execution time (s).
    pub time_s: f64,
    /// Speedup, computed as the paper does: relative to the two-processor
    /// run, multiplied by two.
    pub speedup: f64,
}

/// **Table 6** — effect of the number of processors (sender-initiated
/// schedule); quality degrades, time scales, traffic peaks then falls.
pub fn table6(harness: &Harness, circuit: &Circuit, procs: &[usize]) -> Vec<Table6Row> {
    let outcomes: Vec<(usize, locus_msgpass::MsgPassOutcome)> = harness.map(procs.to_vec(), |p| {
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
        .map(|(p, out)| Table6Row {
            procs: p,
            ckt_ht: out.quality.circuit_height,
            occupancy: out.quality.occupancy_factor,
            mbytes: out.mbytes,
            time_s: out.time_secs,
            speedup: t2 / out.time_secs * 2.0,
        })
        .collect()
}

/// A locality-measure row (§5.3.3).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LocalityRow {
    /// Circuit name.
    pub circuit: String,
    /// Assignment method label.
    pub method: String,
    /// Processor count.
    pub procs: usize,
    /// Mean hops between routing and owning processor (0 = perfect).
    pub mean_hops: f64,
    /// Fraction of route cells routed by their owner.
    pub owned_fraction: f64,
}

/// **§5.3.3** — the locality measure over assignment strategies and
/// processor counts (computed on the sequential routing solution, so the
/// measure reflects the circuit + assignment, not update noise).
pub(crate) fn locality_study(
    harness: &Harness,
    circuits: &[&Circuit],
    proc_counts: &[usize],
) -> Vec<LocalityRow> {
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
                rows.push(LocalityRow {
                    circuit: circuit.name.clone(),
                    method: method.to_string(),
                    procs: p,
                    mean_hops: lm.mean_hops,
                    owned_fraction: lm.owned_fraction,
                });
            }
        }
        rows
    });
    per_circuit.into_iter().flatten().collect()
}

/// A speedup row (§5.4) of the message-passing router.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SpeedupRow {
    /// Circuit name.
    pub circuit: String,
    /// Processor count.
    pub procs: usize,
    /// Simulated seconds.
    pub time_s: f64,
    /// Speedup relative to the 2-processor run × 2 (paper convention).
    pub speedup: f64,
}

/// **§5.4 (speedup)** — message-passing speedup on the simulator. The
/// threaded router's wall-clock speedup is host time, which `benchmark/`
/// measures (`shmem.threads_run_ms.{p1,pN}`).
pub(crate) fn speedup_study(
    harness: &Harness,
    circuits: &[&Circuit],
    proc_counts: &[usize],
) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for &circuit in circuits {
        // Message passing on the simulated mesh (simulated time, so the
        // points can run concurrently without distorting each other).
        let times: Vec<(usize, f64)> = harness.map(proc_counts.to_vec(), |p| {
            let out = run_msgpass(circuit, MsgPassConfig::new(p, UpdateSchedule::sender_paper()));
            (p, out.time_secs)
        });
        let t2 = times.iter().find(|(p, _)| *p == 2).map(|&(_, t)| t).unwrap_or(times[0].1);
        for &(p, t) in &times {
            rows.push(SpeedupRow {
                circuit: circuit.name.clone(),
                procs: p,
                time_s: t,
                speedup: t2 / t * 2.0,
            });
        }
    }
    rows
}

/// A paradigm-comparison row (§5.2).
#[derive(Clone, Debug, PartialEq)]
pub struct CompareRow {
    /// Approach label.
    pub approach: String,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Megabytes transferred (bus traffic at 8-byte lines for shared
    /// memory; payload bytes for message passing).
    pub mbytes: f64,
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
/// traffic-measured run per registered paradigm.
pub fn compare_paradigms(harness: &Harness, circuit: &Circuit, n_procs: usize) -> Vec<CompareRow> {
    harness.map(COMPARE_ENGINES.to_vec(), |(name, label)| {
        let run = engines::run(name, circuit, &RouterParams::default(), n_procs, true)
            .expect("the default parameters fit every compared engine");
        CompareRow {
            approach: label.to_string(),
            ckt_ht: run.outcome.quality.circuit_height,
            mbytes: run.mbytes.expect("every compared engine measures traffic"),
        }
    })
}

/// An ablation row: one configuration variant of a design choice.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Megabytes transferred.
    pub mbytes: f64,
    /// Execution time (s).
    pub time_s: f64,
    /// Packets sent.
    pub packets: u64,
}

fn ablation_row(variant: &str, out: &locus_msgpass::MsgPassOutcome) -> AblationRow {
    AblationRow {
        variant: variant.to_string(),
        ckt_ht: out.quality.circuit_height,
        mbytes: out.mbytes,
        time_s: out.time_secs,
        packets: out.packets.total_packets(),
    }
}

/// **Ablation (§4.3.1)** — the three update-packet structures the paper
/// discusses: bounding box (chosen), full region, wire-based events.
pub(crate) fn structures_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<AblationRow> {
    let schedule = UpdateSchedule::sender_paper();
    let variants = vec![
        ("bounding box (paper's choice)", PacketStructure::BoundingBox),
        ("full region", PacketStructure::FullRegion),
        ("wire-based events", PacketStructure::WireBased),
    ];
    harness.map(variants, |(label, st)| {
        let out = run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_structure(st));
        assert!(!out.deadlocked, "structure {label} deadlocked");
        ablation_row(label, &out)
    })
}

/// **Ablation** — candidate channel overshoot: how far two-bend VHV
/// candidates may detour outside the pin bounding box (DESIGN.md §6).
pub(crate) fn overshoot_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<AblationRow> {
    harness.map(vec![0u16, 1, 2], |ov| {
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_paper())
            .with_params(RouterParams::default().with_channel_overshoot(ov));
        let out = run_msgpass(circuit, cfg);
        ablation_row(&format!("overshoot = {ov}"), &out)
    })
}

/// **Ablation** — network contention on vs off: how much of the
/// execution time the wormhole channel-blocking model accounts for
/// (evaluated on the chattiest sender schedule).
pub(crate) fn contention_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
) -> Vec<AblationRow> {
    let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_initiated(2, 1));
    harness.map(vec![true, false], |modelled| {
        if modelled {
            ablation_row("contention modelled", &run_msgpass(circuit, cfg))
        } else {
            let out = locus_msgpass::run_msgpass_with_mesh(
                circuit,
                cfg,
                cfg.mesh_config().without_contention(),
            );
            ablation_row("contention disabled", &out)
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
) -> Vec<AblationRow> {
    let schedule = UpdateSchedule::sender_paper();
    harness.map(vec![false, true], |dynamic| {
        if dynamic {
            let out =
                run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_dynamic_wires());
            ablation_row("dynamic distribution (1 iter)", &out)
        } else {
            let params = RouterParams::default().with_iterations(1);
            let out =
                run_msgpass(circuit, MsgPassConfig::new(n_procs, schedule).with_params(params));
            ablation_row("static assignment (1 iter)", &out)
        }
    })
}

/// A row of the fault-resilience study.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FaultRow {
    /// Update schedule label.
    pub schedule: &'static str,
    /// Uniform packet-loss rate in basis points (1000 = 10%).
    pub loss_bp: u32,
    /// Circuit height.
    pub ckt_ht: u64,
    /// Simulated execution time in seconds.
    pub time_s: f64,
    /// Payload megabytes transferred (including repair traffic).
    pub mbytes: f64,
    /// Packets the fault plan dropped.
    pub dropped: u64,
    /// Packets the reliability layer retransmitted.
    pub retransmits: u64,
    /// Cumulative acks sent.
    pub acks: u64,
    /// Mean absolute replica divergence at the end of the run.
    pub divergence: f64,
    /// Whether the run degraded (watchdog had to complete it).
    pub degraded: bool,
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
/// fault-free baseline exactly.
pub(crate) fn faults_study(
    harness: &Harness,
    circuit: &Circuit,
    n_procs: usize,
    losses_bp: &[u32],
) -> Vec<FaultRow> {
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
        FaultRow {
            schedule: name,
            loss_bp,
            ckt_ht: out.quality.circuit_height,
            time_s: out.time_secs,
            mbytes: out.mbytes,
            dropped: out.net.packets_dropped,
            retransmits: out.reliability.retransmits,
            acks: out.reliability.acks_sent,
            divergence: out.replica_divergence,
            degraded: out.degraded.is_some(),
        }
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
                g[0].mbytes >= g[3].mbytes,
                "loc=1 traffic {} must be >= loc=20 traffic {}",
                g[0].mbytes,
                g[3].mbytes
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
            assert!(g[0].mbytes >= g[2].mbytes);
        }
    }

    #[test]
    fn blocking_study_blocking_never_faster() {
        let c = presets::small();
        for row in blocking_study(&h(), &c, QUICK_PROCS) {
            assert!(row.time_blocking >= row.time_nonblocking, "schedule {:?}", row.schedule);
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
        assert!(
            rows[3].mbytes > rows[1].mbytes,
            "32B lines {} must out-traffic 8B lines {}",
            rows[3].mbytes,
            rows[1].mbytes
        );
        for r in &rows {
            assert!(
                r.write_fraction > 0.6,
                "line {}: write fraction {} too low",
                r.line_size,
                r.write_fraction
            );
        }
    }

    #[test]
    fn table3_bus_wt_out_traffics_wbi_and_unknown_backends_are_errors() {
        let c = presets::small();
        let wbi = table3_backend(&c, QUICK_PROCS, &[8], "bus-wbi").expect("registered");
        let wt = table3_backend(&c, QUICK_PROCS, &[8], "bus-wt").expect("registered");
        assert!(
            wt[0].mbytes > wbi[0].mbytes,
            "write-through pays a bus word on every store, so it must out-traffic WBI: \
             {} vs {}",
            wt[0].mbytes,
            wbi[0].mbytes
        );
        assert!(table3_backend(&c, QUICK_PROCS, &[8], "nope").is_err());
    }

    #[test]
    fn memory_study_covers_every_backend_and_priority_never_hurts_critical() {
        let c = presets::small();
        let rows = memory_study(&h(), &[&c], QUICK_PROCS, MEMORY_STUDY_LINE_SIZE).expect("valid");
        assert_eq!(rows.len(), locus_coherence::memory_registry().len());
        let by = |name: &str| rows.iter().find(|r| r.backend == name).unwrap();
        // WBI-semantics backends agree on data traffic; transport differs.
        assert_eq!(by("bus-wbi").mbytes, by("directory").mbytes);
        assert!(by("directory").inval_mbytes <= by("bus-wbi").inval_mbytes);
        // DLS caches nothing, so it has no coherence events or
        // invalidation transport at all.
        assert_eq!(by("dls").coherence_events, 0);
        assert_eq!(by("dls").inval_mbytes, 0.0);
        for r in &rows {
            assert!(
                r.prio_critical_mean_ns <= r.fifo_critical_mean_ns,
                "{}: critical-first must not slow critical requests: {r:?}",
                r.backend
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
        assert!((rows[0].speedup - 2.0).abs() < 1e-9, "P=2 speedup is 2 by definition");
        assert!(rows[1].time_s < rows[0].time_s, "4 procs must be faster than 2");
        assert!(rows[1].speedup > 2.0);
    }

    #[test]
    fn locality_study_round_robin_worse_than_local() {
        let c = presets::small();
        let rows = locality_study(&h(), &[&c], &[4]);
        let rr = rows.iter().find(|r| r.method.contains("robin")).unwrap();
        let local = rows.iter().find(|r| r.method.contains("inf")).unwrap();
        assert!(local.mean_hops < rr.mean_hops);
    }

    #[test]
    fn compare_paradigms_traffic_ordering() {
        let c = presets::small();
        let rows = compare_paradigms(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 3);
        // Shared memory must move more bytes than sender-initiated, which
        // must move more than receiver-initiated (§5.2, §6).
        assert!(rows[0].mbytes > rows[1].mbytes);
        assert!(rows[1].mbytes > rows[2].mbytes);
    }

    #[test]
    fn structures_study_orders_traffic() {
        let c = presets::small();
        let rows = structures_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 3);
        let bbox = &rows[0];
        let full = &rows[1];
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
        assert!(rows[0].time_s <= rows[2].time_s);
    }

    #[test]
    fn contention_study_runs_and_contention_counter_responds() {
        let c = presets::small();
        let rows = contention_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 2);
        // Message timing feeds back into the adaptive application, so
        // total time and packet counts may move either way; the solid
        // invariant is the contention counter itself.
        let cfg = MsgPassConfig::new(QUICK_PROCS, UpdateSchedule::sender_initiated(2, 1));
        let with = run_msgpass(&c, cfg);
        let without =
            locus_msgpass::run_msgpass_with_mesh(&c, cfg, cfg.mesh_config().without_contention());
        assert!(with.net.contention_ns > 0, "chatty schedule must contend");
        assert_eq!(without.net.contention_ns, 0);
    }

    #[test]
    fn distribution_study_dynamic_not_faster() {
        let c = presets::small();
        let rows = distribution_study(&h(), &c, QUICK_PROCS);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].time_s >= rows[0].time_s * 0.9,
            "dynamic should not significantly beat static: {rows:?}"
        );
        assert!(rows[1].packets > rows[0].packets, "requests/grants add packets");
    }

    #[test]
    fn faults_study_rows_are_deterministic_and_loss_costs_traffic() {
        let c = presets::small();
        let rows = faults_study(&h(), &c, QUICK_PROCS, FAULT_LOSSES_BP_QUICK);
        assert_eq!(rows.len(), 4, "two schedules x two loss points");
        for pair in rows.chunks(2) {
            let (clean, lossy) = (&pair[0], &pair[1]);
            assert_eq!(clean.loss_bp, 0);
            assert_eq!(clean.dropped, 0);
            assert_eq!(clean.retransmits, 0, "fault-free rows run the unmodified protocol");
            assert!(lossy.dropped > 0, "10% loss must drop packets: {lossy:?}");
            assert!(lossy.retransmits > 0, "drops must force retransmissions: {lossy:?}");
            assert!(!clean.degraded && !lossy.degraded);
        }
        let again = faults_study(&h(), &c, QUICK_PROCS, FAULT_LOSSES_BP_QUICK);
        assert_eq!(rows, again, "the study must be exactly reproducible");
    }
}
