//! Every experiment as a [`Report`]: the run settings the CLI passes in
//! ([`RunCfg`]) and, per experiment id, one function that runs its sweep
//! and declares the columns of its table — the one place a sweep point,
//! a header, a JSON key or a precision is written down.
//!
//! Every swept engine is deterministic, so independent sweep points run
//! concurrently on `cfg.harness` and a report is the same whichever pool
//! ran it (`Harness::serial()` or `Harness::auto()`). `--quick` shrinks
//! every sweep to the small synthetic circuit at 4 processors
//! (`RunCfg::pick`); the tests run those settings, the CLI the paper's.

use std::collections::{BTreeMap, BTreeSet};

use locus_analysis::classify::{classify_races, ClassifiedRace};
use locus_analysis::race::{detect, RaceKind};
use locus_circuit::{presets, Circuit, GridCell};
use locus_coherence::{
    build_memory_model, memory_registry, traffic_by_backend, traffic_by_line_size, MemRef,
    MemoryConfig, MemoryOutcome, Trace,
};
use locus_mesh::FaultPlan;
use locus_msgpass::{
    chaos, run_msgpass, run_msgpass_with_mesh, MsgPassConfig, MsgPassOutcome, PacketStructure,
    ReplicaSnapshot, UpdateSchedule,
};
use locus_obs::export::Json;
use locus_obs::Histogram;
use locus_router::engine::EngineRun;
use locus_router::locality::locality_measure;
use locus_router::render::{render_cost_array, render_regions};
use locus_router::{assign, AssignmentStrategy, RegionMap, RouterParams, SequentialRouter};
use locus_shmem::{addr_cell, ShmemConfig, ShmemEmulator};
use locusroute::engines::{self, registry};

use crate::report::{col, fixed, fixed_as, float, fraction, text, Cell, Report};
use crate::Harness;

/// The paper's default message-passing machine size.
pub const PAPER_PROCS: usize = 16;

/// The `(registry engine, display label)` pairs [`compare`] runs, in
/// paper order.
pub const COMPARE_ENGINES: [(&str, &str); 3] = [
    ("shmem-emul", "shared memory (WBI, 8B lines)"),
    ("msgpass-sender", "message passing, sender initiated (2,10)"),
    ("msgpass-receiver", "message passing, receiver initiated (1,5)"),
];

/// Settings shared by every experiment: the sweep pool and whether to
/// shrink to the CI-sized quick configuration.
pub struct RunCfg {
    /// Pool the independent sweep points run on.
    pub harness: Harness,
    /// `--quick`: small synthetic circuit, 4 processors.
    pub quick: bool,
    /// `--memory <backend>`: restrict memory-system experiments to one
    /// registered backend.
    pub memory_backend: Option<String>,
}

impl RunCfg {
    /// The one place `--quick` chooses: `quick` under it, else `full`.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The benchmark circuit (`--quick`: the small synthetic preset).
    pub fn circuit(&self) -> Circuit {
        self.pick(presets::small as fn() -> Circuit, presets::bnr_e)()
    }

    /// Both circuits of the two-circuit tables (`--quick`: small, tiny).
    fn circuits(&self) -> [Circuit; 2] {
        [self.circuit(), self.pick(presets::tiny as fn() -> Circuit, presets::mdc)()]
    }

    /// Processor count (`--quick`: 4).
    pub fn procs(&self) -> usize {
        self.pick(4, PAPER_PROCS)
    }

    /// Processor sweep for Table 6 / speedup (`--quick`: {2,4}).
    fn proc_sweep(&self) -> &'static [usize] {
        self.pick(&[2, 4], &[2, 4, 9, 16])
    }

    /// Short circuit label for table titles (paper naming).
    fn label(&self) -> &'static str {
        self.pick("small", "bnrE")
    }

    fn setting(&self) -> String {
        format!("{}, {} procs", self.label(), self.procs())
    }
}

/// What every experiment id maps to.
pub type Experiment = fn(&RunCfg) -> Result<Report, String>;

/// A message-passing sweep point, which must end on its own: a run that
/// deadlocks is an engine bug, not a cell of a table.
fn run(circuit: &Circuit, config: MsgPassConfig) -> MsgPassOutcome {
    let out = run_msgpass(circuit, config);
    assert!(!out.deadlocked, "{} deadlocked under {config:?}", circuit.name);
    out
}

/// A measure not every engine has (a clock, traffic), to 3 places.
fn opt3(v: Option<f64>) -> Cell {
    v.map_or(Json::Null.into(), |v| fixed(v, 3))
}

/// Tables 1 and 2: one sender- or receiver-initiated run per pair of
/// update frequencies, the first varying slowest.
fn update_sweep(
    cfg: &RunCfg,
    title: String,
    [a, b]: [(&'static str, &'static str); 2],
    (firsts, seconds): (&[u32], &[u32]),
    schedule: fn(u32, u32) -> UpdateSchedule,
) -> Result<Report, String> {
    let points: Vec<(u32, u32)> =
        firsts.iter().flat_map(|&x| seconds.iter().map(move |&y| (x, y))).collect();
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg
        .harness
        .map(points, |(x, y)| (x, y, run(&circuit, MsgPassConfig::new(procs, schedule(x, y)))));
    Ok(Report::new(title).table(
        "rows",
        &rows,
        &[
            col(a.0, a.1, |r| r.0.into()),
            col(b.0, b.1, |r| r.1.into()),
            col("ckt_ht", "Ckt Ht.", |r| r.2.quality.circuit_height.into()),
            col("occupancy", "Occup. Factor", |r| r.2.quality.occupancy_factor.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.2.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.2.time_secs, 3)),
        ],
    ))
}

/// `table1`: **Table 1** — network traffic and quality using
/// sender-initiated updates: sweep `SendRmtData ∈ {2,5,10}` ×
/// `SendLocData ∈ {1,5,10,20}`.
pub fn table1(cfg: &RunCfg) -> Result<Report, String> {
    update_sweep(
        cfg,
        format!("Table 1: network traffic using sender initiated updates ({})", cfg.setting()),
        [("send_rmt_data", "SendRmtData"), ("send_loc_data", "SendLocData")],
        (&[2, 5, 10], &[1, 5, 10, 20]),
        UpdateSchedule::sender_initiated,
    )
}

/// `table2`: **Table 2** — non-blocking receiver-initiated updates:
/// sweep `ReqLocData ∈ {1,2,10}` × `ReqRmtData ∈ {5,10,30}`.
pub fn table2(cfg: &RunCfg) -> Result<Report, String> {
    update_sweep(
        cfg,
        format!(
            "Table 2: traffic using non-blocking receiver initiated updates ({})",
            cfg.setting()
        ),
        [("req_loc_data", "ReqLocData"), ("req_rmt_data", "ReqRmtData")],
        (&[1, 2, 10], &[5, 10, 30]),
        UpdateSchedule::receiver_initiated,
    )
}

/// `blocking`: **§5.1.3** — blocking vs non-blocking receiver-initiated
/// strategies on the same update schedules: quality about equal,
/// blocking execution time up to ~75% larger.
pub fn blocking(cfg: &RunCfg) -> Result<Report, String> {
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(vec![(1u32, 5u32), (2, 10), (10, 30)], |(loc, rmt)| {
        let [nonblocking, blocking] = [false, true].map(|blocking| {
            let schedule =
                UpdateSchedule { blocking, ..UpdateSchedule::receiver_initiated(loc, rmt) };
            run(&circuit, MsgPassConfig::new(procs, schedule))
        });
        ((loc, rmt), nonblocking, blocking)
    });
    Ok(Report::new(format!(
        "§5.1.3: blocking vs non-blocking receiver initiated ({})",
        cfg.setting()
    ))
    .table(
        "rows",
        &rows,
        &[
            col("schedule", "(ReqLoc,ReqRmt)", |r| {
                let (loc, rmt) = r.0;
                Cell::from(Json::Array(vec![loc.into(), rmt.into()]))
                    .shown(format!("({loc},{rmt})"))
            }),
            col("ht_nonblocking", "Ht nonblk", |r| r.1.quality.circuit_height.into()),
            col("ht_blocking", "Ht blk", |r| r.2.quality.circuit_height.into()),
            col("time_nonblocking", "T nonblk (s)", |r| fixed(r.1.time_secs, 3)),
            col("time_blocking", "T blk (s)", |r| fixed(r.2.time_secs, 3)),
            col("time_delta_pct", "T delta", |r| {
                let delta = (r.2.time_secs / r.1.time_secs - 1.0) * 100.0;
                fixed(delta, 1).shown(format!("{delta:+.1}%"))
            }),
        ],
    ))
}

/// `mixed`: **§5.1.3** — the paper's mixed schedule (`SendLocData=5,
/// SendRmtData=2, ReqLocData=1, ReqRmtData=5`) against pure sender- and
/// pure receiver-initiated schedules: mixed should beat both on
/// occupancy factor using roughly half the sender traffic.
pub fn mixed(cfg: &RunCfg) -> Result<Report, String> {
    let cases = vec![
        ("sender (2,5)", UpdateSchedule::sender_initiated(2, 5)),
        ("receiver (1,5)", UpdateSchedule::receiver_paper()),
        ("mixed (5,2,1,5)", UpdateSchedule::mixed_paper()),
    ];
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(cases, |(label, schedule)| {
        (label, run(&circuit, MsgPassConfig::new(procs, schedule)))
    });
    Ok(Report::new(format!("§5.1.3: mixed update schedules ({})", cfg.setting())).table(
        "rows",
        &rows,
        &[
            col("strategy", "strategy", |r| r.0.into()),
            col("ckt_ht", "Ckt Ht.", |r| r.1.quality.circuit_height.into()),
            col("occupancy", "Occup. Factor", |r| r.1.quality.occupancy_factor.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.1.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.1.time_secs, 3)),
        ],
    ))
}

/// The shared-memory reference trace the coherence experiments replay:
/// one traced emulator run.
fn shared_memory_trace(circuit: &Circuit, procs: usize) -> Trace {
    let out = ShmemEmulator::new(circuit, ShmemConfig::new(procs).with_trace()).run();
    out.trace.expect("trace collection enabled")
}

/// `table3`: **Table 3** — shared-memory traffic as a function of cache
/// line size with infinite caches: one traced emulator run replayed at
/// each line size through the `--memory` backend (default `bus-wbi`, the
/// paper's Write-Back-with-Invalidate bus; `bus-wt` is the write-through
/// ablation).
pub fn table3(cfg: &RunCfg) -> Result<Report, String> {
    let backend = cfg.memory_backend.as_deref();
    let trace = shared_memory_trace(&cfg.circuit(), cfg.procs());
    let rows = traffic_by_backend(backend.unwrap_or("bus-wbi"), &trace, &[4, 8, 16, 32])?;
    Ok(Report::new(format!(
        "Table 3: shared-memory traffic vs cache line size ({}, {})",
        cfg.setting(),
        backend.unwrap_or("WBI")
    ))
    .table(
        "rows",
        &rows,
        &[
            col("line_size", "Cache Line Size", |r| r.0.into()),
            col("mbytes", "MBytes Transferred", |r| fixed(r.1.stats.mbytes(), 2)),
            col("write_fraction", "write-caused", |r| fraction(r.1.stats.write_fraction(), 4)),
            col("invalidations", "invalidations", |r| r.1.stats.invalidations.into()),
        ],
    ))
}

/// Every `(circuit, method, strategy)` point of Tables 4 and 5: both
/// circuits under each of the paper's wire-assignment rows.
fn assignment_sweep(circuits: &[Circuit]) -> Vec<(&Circuit, &'static str, AssignmentStrategy)> {
    circuits
        .iter()
        .flat_map(|c| AssignmentStrategy::table45_rows().map(|(method, s)| (c, method, s)))
        .collect()
}

/// `table4`: **Table 4** — effect of the wire-assignment strategy on the
/// message-passing implementation (both circuits, sender-initiated
/// schedule, plus receiver-initiated traffic for §5.3.1's −63%
/// comparison).
pub fn table4(cfg: &RunCfg) -> Result<Report, String> {
    let (circuits, procs) = (cfg.circuits(), cfg.procs());
    let rows = cfg.harness.map(assignment_sweep(&circuits), |(circuit, method, strategy)| {
        let [sender, receiver] = [UpdateSchedule::sender_paper(), UpdateSchedule::receiver_paper()]
            .map(|s| run(circuit, MsgPassConfig::new(procs, s).with_assignment(strategy)));
        (circuit.name.as_str(), method, sender, receiver)
    });
    Ok(Report::new(
        "Table 4: effect of locality, message passing (sender initiated; last column: \
         receiver-initiated traffic)",
    )
    .table(
        "rows",
        &rows,
        &[
            col("circuit", "Ckt.", |r| r.0.into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.2.quality.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.2.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.2.time_secs, 3)),
            col("mbytes_receiver", "MB (recv-init)", |r| fixed(r.3.mbytes, 3)),
        ],
    ))
}

/// `table5`: **Table 5** — effect of the wire-assignment strategy on the
/// shared-memory implementation: quality and bus traffic at 8-byte
/// lines (each trace is dropped once priced).
pub fn table5(cfg: &RunCfg) -> Result<Report, String> {
    let (circuits, procs) = (cfg.circuits(), cfg.procs());
    let rows = cfg.harness.map(assignment_sweep(&circuits), |(circuit, method, strategy)| {
        let config = ShmemConfig::new(procs).with_trace().with_static_assignment(strategy);
        let out = ShmemEmulator::new(circuit, config).run();
        let trace = out.trace.expect("trace enabled");
        let stats = traffic_by_line_size(&trace, &[8]).remove(0).1;
        (circuit.name.as_str(), method, out.quality, stats)
    });
    Ok(Report::new("Table 5: effect of locality in shared memory version (8-byte lines)").table(
        "rows",
        &rows,
        &[
            col("circuit", "Ckt.", |r| r.0.into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("ckt_ht", "Ckt. Height", |r| r.2.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.3.mbytes(), 3)),
        ],
    ))
}

/// Table 6's sweep on one circuit: `(procs, outcome, speedup)` per
/// processor count, the speedup computed as the paper does: relative to
/// the two-processor run, multiplied by two.
fn proc_sweep(cfg: &RunCfg, circuit: &Circuit) -> Vec<(usize, MsgPassOutcome, f64)> {
    let outcomes = cfg.harness.map(cfg.proc_sweep().to_vec(), |p| {
        (p, run(circuit, MsgPassConfig::new(p, UpdateSchedule::sender_paper())))
    });
    let t2 = outcomes.iter().find(|(p, _)| *p == 2).unwrap_or(&outcomes[0]).1.time_secs;
    outcomes
        .into_iter()
        .map(|(p, out)| {
            let speedup = t2 / out.time_secs * 2.0;
            (p, out, speedup)
        })
        .collect()
}

/// `table6`: **Table 6** — effect of the number of processors
/// (sender-initiated schedule); quality degrades, time scales, traffic
/// peaks then falls.
pub fn table6(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(format!(
        "Table 6: effect of number of processors ({}, sender initiated)",
        cfg.label()
    ))
    .table(
        "rows",
        &proc_sweep(cfg, &cfg.circuit()),
        &[
            col("procs", "Num Procs.", |r| r.0.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.1.quality.circuit_height.into()),
            col("occupancy", "Occup. Factor", |r| r.1.quality.occupancy_factor.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.1.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.1.time_secs, 3)),
            col("speedup", "Speedup", |r| fixed(r.2, 1)),
        ],
    ))
}

/// `locality`: **§5.3.3** — the locality measure over assignment
/// strategies and processor counts, computed on the sequential routing
/// solution so that it reflects the circuit and assignment, not update
/// noise.
pub fn locality(cfg: &RunCfg) -> Result<Report, String> {
    let procs: &[usize] = cfg.pick(&[4], &[4, 9, 16]);
    let per_circuit = cfg.harness.map(Vec::from(cfg.circuits()), |circuit| {
        let solution = SequentialRouter::new(&circuit, RouterParams::default()).run();
        let mut rows = Vec::new();
        for &p in procs {
            let regions = RegionMap::new(circuit.channels, circuit.grids, p);
            for (method, strategy) in [
                ("round robin", AssignmentStrategy::RoundRobin),
                ("ThresholdCost = inf.", AssignmentStrategy::Locality { threshold_cost: None }),
            ] {
                let a = assign(&circuit, &regions, strategy);
                let lm = locality_measure(&solution.routes, &a.proc_of_wire, &regions);
                rows.push((circuit.name.clone(), method, p, lm));
            }
        }
        rows
    });
    Ok(Report::new("§5.3.3: locality measure (mean hops routing proc -> owner)").table(
        "rows",
        &per_circuit.into_iter().flatten().collect::<Vec<_>>(),
        &[
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("procs", "Procs", |r| r.2.into()),
            col("mean_hops", "Mean hops", |r| fixed(r.3.mean_hops, 2)),
            col("owned_fraction", "Owned cells", |r| fraction(r.3.owned_fraction, 4)),
        ],
    ))
}

/// `speedup`: **§5.4** — Table 6's sweep on both circuits, the
/// message-passing speedup on the simulator. The threaded router's
/// wall-clock speedup is host time, which `benchmark/` measures
/// (`shmem.threads_run_ms.{p1,pN}`).
pub fn speedup(cfg: &RunCfg) -> Result<Report, String> {
    let mut rows = Vec::new();
    for c in cfg.circuits() {
        let sweep = proc_sweep(cfg, &c);
        rows.extend(sweep.into_iter().map(|(p, out, speedup)| (c.name.clone(), p, out, speedup)));
    }
    Ok(Report::new("§5.4: speedup (relative to 2-processor run, x2)").table(
        "rows",
        &rows,
        &[
            col("engine", "engine", |_| "message passing".into()),
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("procs", "Procs", |r| r.1.into()),
            col("time_s", "Time (s)", |r| fixed(r.2.time_secs, 4)),
            col("speedup", "Speedup", |r| fixed(r.3, 1)),
        ],
    ))
}

/// `compare`: **§5.2** — the headline comparison: shared memory (best
/// quality, most traffic) vs sender-initiated (≈10× less traffic) vs
/// receiver-initiated (≈10× less again). Driven entirely through the
/// engine registry: one traffic-measured run per [`COMPARE_ENGINES`]
/// entry.
pub fn compare(cfg: &RunCfg) -> Result<Report, String> {
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(COMPARE_ENGINES.to_vec(), |(name, label)| {
        let result = engines::run(name, &circuit, &RouterParams::default(), procs, true);
        (label, result.expect("the default parameters fit every compared engine"))
    });
    Ok(Report::new(format!("§5.2: shared memory vs message passing ({})", cfg.setting())).table(
        "rows",
        &rows,
        &[
            col("approach", "approach", |r| r.0.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.1.outcome.quality.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| opt3(r.1.mbytes)),
        ],
    ))
}

/// An ablation's table: one message-passing run per labelled variant.
fn ablation(title: String, rows: &[(String, MsgPassOutcome)]) -> Result<Report, String> {
    Ok(Report::new(title).table(
        "rows",
        rows,
        &[
            col("variant", "variant", |r| r.0.as_str().into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.1.quality.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.1.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.1.time_secs, 3)),
            col("packets", "packets", |r| r.1.packets.total_packets().into()),
        ],
    ))
}

/// `structures`: **Ablation (§4.3.1)** — the three update-packet
/// structures the paper discusses: bounding box (chosen), full region,
/// wire-based events.
pub fn structures(cfg: &RunCfg) -> Result<Report, String> {
    let variants = vec![
        ("bounding box (paper's choice)", PacketStructure::BoundingBox),
        ("full region", PacketStructure::FullRegion),
        ("wire-based events", PacketStructure::WireBased),
    ];
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(variants, |(label, structure)| {
        let config = MsgPassConfig::new(procs, UpdateSchedule::sender_paper());
        (label.to_string(), run(&circuit, config.with_structure(structure)))
    });
    ablation(
        format!("Ablation §4.3.1: update packet structures ({}, sender initiated)", cfg.setting()),
        &rows,
    )
}

/// `distribution`: **Ablation (§4.2)** — static vs dynamic wire
/// distribution: the paper rejected the dynamic scheme because wire
/// requests are only served between wires; this measures what that
/// choice cost.
pub fn distribution(cfg: &RunCfg) -> Result<Report, String> {
    let config = MsgPassConfig::new(cfg.procs(), UpdateSchedule::sender_paper());
    let variants = vec![
        (
            "static assignment (1 iter)",
            config.with_params(RouterParams::default().with_iterations(1)),
        ),
        ("dynamic distribution (1 iter)", config.with_dynamic_wires()),
    ];
    let circuit = cfg.circuit();
    let rows =
        cfg.harness.map(variants, |(label, config)| (label.to_string(), run(&circuit, config)));
    ablation(
        format!(
            "Ablation §4.2: static vs dynamic wire distribution ({}, 1 iteration)",
            cfg.setting()
        ),
        &rows,
    )
}

/// `overshoot`: **Ablation** — candidate channel overshoot: how far
/// two-bend VHV candidates may detour outside the pin bounding box
/// (DESIGN.md §6).
pub fn overshoot(cfg: &RunCfg) -> Result<Report, String> {
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(vec![0u16, 1, 2], |ov| {
        let config = MsgPassConfig::new(procs, UpdateSchedule::sender_paper())
            .with_params(RouterParams::default().with_channel_overshoot(ov));
        (format!("overshoot = {ov}"), run(&circuit, config))
    });
    ablation(format!("Ablation: two-bend candidate channel overshoot ({})", cfg.setting()), &rows)
}

/// `contention`: **Ablation** — network contention on vs off: how much
/// of the execution time the wormhole channel-blocking model accounts
/// for (evaluated on the chattiest sender schedule).
pub fn contention(cfg: &RunCfg) -> Result<Report, String> {
    ablation(
        format!("Ablation: network contention model on/off ({}, eager sender)", cfg.setting()),
        &contention_runs(cfg),
    )
}

/// The contention ablation's two runs, modelled first.
fn contention_runs(cfg: &RunCfg) -> Vec<(String, MsgPassOutcome)> {
    let config = MsgPassConfig::new(cfg.procs(), UpdateSchedule::sender_initiated(2, 1));
    let circuit = cfg.circuit();
    cfg.harness.map(vec![true, false], |modelled| {
        if modelled {
            ("contention modelled".to_string(), run(&circuit, config))
        } else {
            let mesh = config.mesh_config().without_contention();
            let out = run_msgpass_with_mesh(&circuit, config, mesh)
                .unwrap_or_else(|msg| panic!("contention study: {msg}"));
            ("contention disabled".to_string(), out)
        }
    })
}

/// `faults`: the **resilience study** — uniform packet loss (0–20%) ×
/// the paper's two headline update schedules with the end-to-end
/// reliability protocol on: how much repair traffic, extra time and
/// replica staleness an unreliable mesh costs, and whether solution
/// quality survives. The `loss_bp = 0` rows run the *unmodified*
/// protocol (no reliability framing) and reproduce the fault-free
/// baseline exactly.
pub fn faults(cfg: &RunCfg) -> Result<Report, String> {
    let losses: &[u32] = cfg.pick(&[0, 1000], &[0, 200, 500, 1000, 2000]);
    let schedules = [
        ("sender(2,10)", UpdateSchedule::sender_paper()),
        ("receiver(1,5)", UpdateSchedule::receiver_paper()),
    ];
    let points: Vec<(&str, UpdateSchedule, u32)> = schedules
        .into_iter()
        .flat_map(|(name, schedule)| losses.iter().map(move |&bp| (name, schedule, bp)))
        .collect();
    let (circuit, procs) = (cfg.circuit(), cfg.procs());
    let rows = cfg.harness.map(points, |(name, schedule, loss_bp)| {
        let mut config = MsgPassConfig::new(procs, schedule);
        if loss_bp > 0 {
            // Seed varies per point so rows are independent experiments;
            // both are fixed constants, so the table is reproducible.
            let seed = 0xFA_0175 + loss_bp as u64;
            config = config.with_faults(FaultPlan::uniform_loss(seed, loss_bp)).with_reliability();
        }
        (name, loss_bp, run(&circuit, config))
    });
    Ok(Report::new(format!(
        "Resilience study: packet loss vs reliability protocol ({})",
        cfg.setting()
    ))
    .field("circuit", cfg.label())
    .field("procs", cfg.procs())
    .table(
        "rows",
        &rows,
        &[
            col("schedule", "schedule", |r| r.0.into()),
            col("loss_bp", "loss", |r| {
                Cell::from(r.1).shown(format!("{:.1}%", r.1 as f64 / 100.0))
            }),
            col("ckt_ht", "Ckt Ht.", |r| r.2.quality.circuit_height.into()),
            col("time_s", "Time (s)", |r| fixed_as(r.2.time_secs, 6, 3)),
            col("mbytes", "MBytes", |r| fixed_as(r.2.mbytes, 6, 3)),
            col("dropped", "dropped", |r| r.2.net.packets_dropped.into()),
            col("retransmits", "resent", |r| r.2.reliability.retransmits.into()),
            col("acks", "acks", |r| r.2.reliability.acks_sent.into()),
            col("divergence", "diverg.", |r| fixed_as(r.2.replica_divergence, 6, 3)),
            col("degraded", "degraded", |r| {
                let degraded = r.2.degraded.is_some();
                Cell::from(degraded).shown(if degraded { "yes" } else { "no" })
            }),
        ],
    ))
}

/// True when two executions of the same chaos cell reproduced each
/// other exactly: routes, time, traffic, quality, and recovery counters.
fn identical(a: &MsgPassOutcome, b: &MsgPassOutcome) -> bool {
    a.routes == b.routes
        && a.time_secs.to_bits() == b.time_secs.to_bits()
        && a.mbytes.to_bits() == b.mbytes.to_bits()
        && a.quality == b.quality
        && a.recovery == b.recovery
}

/// `chaos`: node-level failure injection × recovery configuration
/// (`BENCH_resilience.json`).
///
/// Every scenario routes a circuit on the message-passing engine with
/// checkpoint/restore recovery on, injects one deterministic node fault
/// mid-run (crash, crash-with-restart, coordinator crash, or a fail-slow
/// stall), and measures what the failure cost relative to the fault-free
/// run under the same recovery configuration: extra simulated time,
/// extra bytes, solution-quality drift, and the recovery-protocol work
/// (checkpoints, reassignments, rollbacks, failovers) that paid for it.
/// The claims the grid backs: any *single* mid-run node failure costs
/// bounded re-work — the run always terminates with every wire routed,
/// no watchdog intervention — and every scenario is bitwise-repeatable
/// (each cell is executed twice and compared). The report fails if any
/// scenario degraded, left a wire to the watchdog, or did not reproduce.
///
/// Recovery windows and fault onsets are **derived, not guessed**, from a
/// clean probe of each circuit, by the policy of `locus_msgpass::chaos`.
pub fn chaos(cfg: &RunCfg) -> Result<Report, String> {
    /// One cell of the grid.
    struct Run<'a> {
        circuit: &'a str,
        procs: usize,
        scenario: &'static str,
        checkpoint_every: u32,
        frac: f64,
        out: MsgPassOutcome,
        /// Whether an immediate second execution reproduced it.
        repeated: bool,
        /// Time and megabytes over the clean row's of its circuit and interval.
        vs_clean: (f64, f64),
    }
    /// Every wire routed, no watchdog, clean termination, reproducible.
    fn ok(r: &Run) -> bool {
        r.out.degraded.is_none() && r.out.watchdog_recoveries == 0 && r.repeated
    }

    let small = presets::small as fn() -> Circuit;
    let circuits = cfg.pick(vec![(small, 4)], vec![(presets::bnr_e, 16), (presets::power_law, 16)]);
    // Crash points of the worker-crash sweep, as fractions of the
    // target's routing span, and the checkpoint intervals (wires).
    let fracs: &[f64] = cfg.pick(&[0.5], &[0.25, 0.5, 0.75]);
    let intervals: &[u32] = cfg.pick(&[4], &[4, 16]);

    // One clean probe per circuit, recovery off: `(circuit, procs,
    // heartbeat period in ns, outcome)`.
    let probes = cfg.harness.map(circuits, |(circuit, procs)| {
        let circuit = circuit();
        let probe = run(&circuit, chaos::base(procs));
        (circuit, procs, chaos::heartbeat_ns(&probe), probe)
    });
    let mut cells = Vec::new();
    for (circuit, procs, heartbeat_ns, probe) in &probes {
        let scenarios = chaos::scenarios(probe, fracs)?;
        for &checkpoint_every in intervals {
            let config = chaos::recovering(*procs, *heartbeat_ns, checkpoint_every);
            for &(scenario, frac, plan) in &scenarios {
                let config = config.with_faults(plan);
                cells.push((circuit, *procs, scenario, checkpoint_every, frac, config));
            }
        }
    }
    let mut rows =
        cfg.harness.map(cells, |(circuit, procs, scenario, checkpoint_every, frac, config)| {
            let out = run_msgpass(circuit, config);
            let repeated = identical(&out, &run_msgpass(circuit, config));
            let circuit = circuit.name.as_str();
            Run {
                circuit,
                procs,
                scenario,
                checkpoint_every,
                frac,
                out,
                repeated,
                vs_clean: (0.0, 0.0),
            }
        });
    // Normalize each row against the clean row of its circuit and interval.
    let clean: BTreeMap<_, _> = rows
        .iter()
        .filter(|r| r.scenario == "clean")
        .map(|r| ((r.circuit, r.procs, r.checkpoint_every), (r.out.time_secs, r.out.mbytes)))
        .collect();
    for r in &mut rows {
        let (time, mbytes) = clean[&(r.circuit, r.procs, r.checkpoint_every)];
        let floor = |x: f64| x.max(f64::MIN_POSITIVE);
        r.vs_clean = (r.out.time_secs / floor(time), r.out.mbytes / floor(mbytes));
    }

    let all_ok = rows.iter().all(ok);
    let mut title = String::new();
    for (circuit, procs, heartbeat_ns, probe) in &probes {
        title += &format!(
            "probe: {} ({procs} procs) clean {:.3}s (routing {:.3}s) -> heartbeat {} ms, \
             suspect window {} ms\n",
            circuit.name,
            probe.time_secs,
            probe.routing_done_secs,
            heartbeat_ns / 1_000_000,
            heartbeat_ns * u64::from(chaos::SUSPECT_AFTER) / 1_000_000,
        );
    }
    title += "\nChaos grid: single node fault x checkpoint interval (recovery on, repeat-verified)";
    let mut report = Report::new(title)
        .field("benchmark", "resilience")
        .field(
            "description",
            "Node-failure chaos grid on the message-passing engine with checkpoint/restore \
             recovery: one deterministic crash, restart, coordinator loss, or stall per run, \
             measured against the fault-free run under the same recovery configuration. All \
             quantities are simulated time, so this file is byte-identical across runs and \
             hosts. Regenerate with: cargo run --release -p locus-bench --bin \
             locus-experiments chaos.",
        )
        .field("quick", cfg.quick)
        .field("all_ok", all_ok)
        .table(
            "probes",
            &probes,
            &[
                col("circuit", "", |p| p.0.name.as_str().into()),
                col("procs", "", |p| p.1.into()),
                col("base_time_s", "", |p| fixed(p.3.time_secs, 6)),
                col("routing_s", "", |p| fixed(p.3.routing_done_secs, 6)),
                col("heartbeat_ns", "", |p| p.2.into()),
                col("suspect_after", "", |_| chaos::SUSPECT_AFTER.into()),
            ],
        )
        .table(
            "rows",
            &rows,
            &[
                col("circuit", "circuit", |r| r.circuit.into()),
                col("procs", "", |r| r.procs.into()),
                col("scenario", "scenario", |r| r.scenario.into()),
                col("checkpoint_every", "ckpt", |r| r.checkpoint_every.into()),
                col("fault_frac", "at", |r| float(r.frac)),
                col("ckt_ht", "ckt ht", |r| r.out.quality.circuit_height.into()),
                col("time_s", "time s", |r| fixed_as(r.out.time_secs, 6, 3)),
                col("mbytes", "", |r| fixed(r.out.mbytes, 6)),
                // The terminal shows the two ratios next to the time; the
                // file keeps them where its readers found them, after
                // the counters.
                col("", "vs clean", |r| text(format!("{:.2}x", r.vs_clean.0))),
                col("", "mb vs", |r| text(format!("{:.2}x", r.vs_clean.1))),
                col("checkpoints", "ckpts", |r| r.out.recovery.checkpoints_taken.into()),
                col("checkpoint_bytes", "", |r| r.out.recovery.checkpoint_bytes.into()),
                col("declared_dead", "dead", |r| r.out.recovery.nodes_declared_dead.into()),
                col("reassigned", "reassign", |r| r.out.recovery.wires_reassigned.into()),
                col("rollbacks", "rollbk", |r| r.out.recovery.rollbacks.into()),
                col("failovers", "failover", |r| r.out.recovery.coordinator_failovers.into()),
                col("duplicates", "dup", |r| r.out.recovery.duplicate_routes.into()),
                col("watchdog", "", |r| r.out.watchdog_recoveries.into()),
                col("degraded", "", |r| r.out.degraded.is_some().into()),
                col("time_vs_clean", "", |r| fixed(r.vs_clean.0, 6)),
                col("mbytes_vs_clean", "", |r| fixed(r.vs_clean.1, 6)),
                col("repeat_identical", "", |r| r.repeated.into()),
                col("", "status", |r| text(if ok(r) { "ok" } else { "FAIL" })),
            ],
        );
    if all_ok {
        report.closing = format!(
            "chaos: all {} scenarios terminated with every wire routed, bitwise-repeatable\n",
            rows.len()
        );
    } else {
        report.failure = Some(
            "chaos: FAILED — a scenario degraded, lost a wire, or did not reproduce".to_string(),
        );
    }
    Ok(report)
}

/// The cache line size the memory study prices every backend at (the
/// paper's Table 3 headline point).
const MEMORY_LINE_SIZE: u32 = 8;

/// The memory study's `(circuit, outcome)` rows: every selected backend
/// built for `machine` replays each circuit's trace. A machine some
/// backend cannot price is that backend's error, given before any trace
/// is collected.
fn memory_rows(
    cfg: &RunCfg,
    machine: MemoryConfig,
) -> Result<Vec<(String, MemoryOutcome)>, String> {
    let backends: Vec<_> = memory_registry()
        .iter()
        .filter(|e| cfg.memory_backend.as_ref().is_none_or(|backend| backend == e.name))
        .collect();
    for entry in &backends {
        entry.build(machine)?;
    }
    let mut rows = Vec::new();
    for circuit in cfg.circuits() {
        let trace = shared_memory_trace(&circuit, cfg.procs());
        rows.extend(cfg.harness.map(backends.clone(), |entry| {
            let model = entry.build(machine).expect("every backend was built above");
            (circuit.name.clone(), model.run(&trace))
        }));
    }
    Ok(rows)
}

/// `memory`: the **memory-system study** — every registered backend (or
/// the one `--memory` names) replays the *same* shared-memory reference
/// trace per circuit (one traced emulator run each, so all backends see
/// byte-identical input) priced over the same mesh machine
/// (`BENCH_memory.json`): protocol data traffic, invalidation transport
/// (broadcast vs point-to-point vs none), and FIFO vs criticality-aware
/// queueing of the rip-up/commit requests.
pub fn memory(cfg: &RunCfg) -> Result<Report, String> {
    let line_size = MEMORY_LINE_SIZE;
    let machine = MemoryConfig::paper(cfg.procs() as u32, line_size);
    // An unknown `--memory` name is reported before the study runs.
    if let Some(backend) = &cfg.memory_backend {
        build_memory_model(backend, machine)?;
    }
    let rows = memory_rows(cfg, machine)?;
    fn ns_as_ms(ns: u64) -> Cell {
        Cell::from(ns).shown(format!("{:.3}", ns as f64 / 1.0e6))
    }
    Ok(Report::new(format!(
        "Memory-system backends: identical traces, {line_size}-byte lines ({} procs)",
        cfg.procs()
    ))
    .field(
        "description",
        "Every registered memory-system backend replaying the same shared-memory reference \
         trace per circuit (infinite caches, so all traffic is coherence traffic). mbytes is \
         protocol data traffic; inval_mbytes prices the invalidation transport (bus rows \
         broadcast, directory rows unicast, dls none). The *_wait columns resolve the \
         identical request log through FIFO and critical-first service: critical requests are \
         the router's rip-up/commit stores. Regenerate with: cargo run --release -p \
         locus-bench --bin locus-experiments memory",
    )
    .field("procs", cfg.procs())
    .field("line_size", line_size)
    .table(
        "rows",
        &rows,
        &[
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("backend", "backend", |r| r.1.backend.into()),
            col("mbytes", "MBytes", |r| fixed_as(r.1.stats.mbytes(), 6, 2)),
            col("write_fraction", "wr-caused", |r| fraction(r.1.stats.write_fraction(), 4)),
            col("coherence_events", "coh. events", |r| r.1.coherence_events().into()),
            col("inval_mbytes", "inval MB", |r| {
                fixed_as(r.1.invalidation_traffic_bytes as f64 / 1.0e6, 6, 2)
            }),
            col("fifo_wait_ns", "FIFO wait (ms)", |r| ns_as_ms(r.1.fifo.all().total_wait_ns)),
            col("fifo_critical_mean_ns", "crit ns (FIFO)", |r| {
                fixed_as(r.1.fifo.critical.mean_wait_ns(), 1, 0)
            }),
            col("prio_critical_mean_ns", "crit ns (prio)", |r| {
                fixed_as(r.1.critical_first.critical.mean_wait_ns(), 1, 0)
            }),
            col("critical_wait_saved_ns", "saved (ms)", |r| ns_as_ms(r.1.critical_wait_saved_ns())),
        ],
    ))
}

/// `figure1`: a cost array with one wire's route highlighted.
pub fn figure1(_: &RunCfg) -> Result<Report, String> {
    let circuit = presets::tiny();
    let out = SequentialRouter::new(&circuit, RouterParams::default()).run();
    Ok(Report::new(format!(
        "Figure 1: cost array with wire 0's route highlighted\n{}",
        render_cost_array(&out.cost, Some(&out.routes[0]))
    )))
}

/// `figure2`: the division of the cost array among four processors.
pub fn figure2(_: &RunCfg) -> Result<Report, String> {
    let circuit = presets::tiny();
    let regions = RegionMap::new(circuit.channels, circuit.grids, 4);
    Ok(Report::new(format!(
        "Figure 2: cost-array division among 4 processors\n{}",
        render_regions(&regions)
    )))
}

/// `figure3`: the update-transaction taxonomy.
pub fn figure3(_: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(
        "Figure 3: classification of update types\n\
         \n\
         updates\n\
         ├── sender initiated\n\
         │   ├── SendLocData  — absolute own-region data, pushed to N/S/E/W neighbours\n\
         │   └── SendRmtData  — deltas pushed to the owning processor\n\
         └── receiver initiated\n\
         ├── ReqRmtData   — ask an owner for its region   (blocking | non-blocking)\n\
         └── ReqLocData   — owner asks a writer for deltas (blocking | non-blocking)\n",
    ))
}

/// Resolves a `--circuit` name to its preset.
fn circuit_by_name(name: &str) -> Result<Circuit, String> {
    match name {
        "tiny" => Ok(presets::tiny()),
        "small" => Ok(presets::small()),
        "bnre" | "bnrE" => Ok(presets::bnr_e()),
        "mdc" => Ok(presets::mdc()),
        "powerlaw" => Ok(presets::power_law()),
        other => {
            Err(format!("unknown circuit {other:?}; expected tiny, small, bnre, mdc or powerlaw"))
        }
    }
}

/// `--engine <name>`: one run of a single registry engine.
pub fn engine(
    cfg: &RunCfg,
    name: &str,
    procs: Option<usize>,
    circuit: Option<&str>,
) -> Result<Report, String> {
    let entry = engines::find(name)?;
    let c = circuit.map_or_else(|| Ok(cfg.circuit()), circuit_by_name)?;
    let procs = procs.unwrap_or_else(|| cfg.procs());
    let run = (entry.run)(&c, &RouterParams::default(), procs, true)?;
    Ok(Report::new(format!("engine run ({}, {} procs)", c.name, procs)).table(
        "rows",
        &[(entry.name, run)],
        &[
            col("engine", "engine", |r: &(&str, EngineRun)| r.0.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.1.outcome.quality.circuit_height.into()),
            col("occupancy", "Occup. Factor", |r| r.1.outcome.quality.occupancy_factor.into()),
            col("mbytes", "MBytes Xfrd.", |r| opt3(r.1.mbytes)),
            col("time_s", "Time (s)", |r| opt3(r.1.time_secs)),
        ],
    ))
}

/// `analyze`: one engine's run checked against the paper's bet that
/// unlocked cost-array reads only cost quality. A shared-memory engine's
/// races are detected in the emulator's trace and classified benign or
/// quality-affecting, and a message-passing engine's replicas are audited
/// for staleness against the true cost array. The threaded router records
/// no trace, so `shmem-threads` is an error that names `shmem-emul`.
pub fn analyze(cfg: &RunCfg, name: &str, procs: Option<usize>) -> Result<Report, String> {
    let engine = engines::find(name)?.name;
    if engine == "shmem-threads" {
        return Err("analyze takes no trace from shmem-threads: its threads read private \
                    replicas; shmem-emul records the shared-memory trace"
            .into());
    }
    let c = cfg.circuit();
    let procs = procs.unwrap_or_else(|| cfg.procs());
    let params = RouterParams::default();
    let schedule = match engine {
        "msgpass-sender" => Some(UpdateSchedule::sender_paper()),
        "msgpass-receiver" => Some(UpdateSchedule::receiver_paper()),
        _ => None,
    };
    if let Some(schedule) = schedule {
        let config = MsgPassConfig::new(procs, schedule)
            .with_params(params)
            .with_audit_every(cfg.pick(2, 8));
        config.validate()?;
        RegionMap::try_new(c.channels, c.grids, procs)?;
        let outcome = run_msgpass(&c, config);
        let (text, fields) = staleness(&outcome.replica_audits);
        let mut report = Report::new(format!(
            "replica staleness: {engine} on {} ({procs} procs) — {text}  \
             quality: height {}, occupancy {}\n",
            c.name, outcome.quality.circuit_height, outcome.quality.occupancy_factor,
        ))
        .field("engine", engine)
        .field("procs", procs);
        report.header.extend(fields);
        return Ok(report);
    }
    // Every shared-memory trace is the emulator's: the sequential router
    // is the emulator at one processor (same wire order, same routes:
    // `tests/engine_equivalence.rs`).
    let procs = if engine == "sequential" { 1 } else { procs };
    let shmem = ShmemConfig::new(procs).with_params(params).with_trace();
    let trace =
        ShmemEmulator::try_new(&c, shmem)?.run().trace.expect("a traced run records a trace");
    let detection = detect(&trace);
    let races = classify_races(&c, &trace, detection.races, params.channel_overshoot);
    let pairs: Vec<(ClassifiedRace, GridCell)> = races
        .into_iter()
        .map(|race| {
            let cell = addr_cell(race.pair.addr, c.grids);
            (race, cell)
        })
        .collect();
    let total = pairs.len();
    let benign = pairs.iter().filter(|(race, _)| race.is_benign()).count();
    let quality = total - benign;
    let per_channel = densest_first(pairs.iter().map(|(race, cell)| (cell.channel, race)));
    let per_wire = densest_first(pairs.iter().flat_map(|(race, _)| {
        let (a, b) = (race.pair.first.wire, race.pair.second.wire);
        [Some(a), (b != a).then_some(b)]
            .into_iter()
            .flatten()
            .filter(|&w| w != MemRef::NO_WIRE)
            .map(move |w| (w, race))
    }));
    type Tally<T> = (T, usize, usize);
    Ok(Report::new(format!(
        "race analysis: {engine} on {} ({procs} procs) — {} refs, {} epochs\n  \
         synchronized pairs: {}\n  \
         races: {total} total — {benign} benign, {quality} quality-affecting",
        c.name, detection.refs, detection.epochs, detection.synchronized_pairs,
    ))
    .field("engine", engine)
    .field("circuit", c.name.as_str())
    .field("procs", procs)
    .field("refs", detection.refs)
    .field("epochs", detection.epochs)
    .field("synchronized_pairs", detection.synchronized_pairs)
    .field(
        "races",
        Json::Object(vec![
            ("total", total.into()),
            ("benign", benign.into()),
            ("quality_affecting", quality.into()),
        ]),
    )
    .table(
        "pairs",
        &pairs,
        &[
            col("addr", "", |(race, _): &(ClassifiedRace, GridCell)| race.pair.addr.into()),
            col("channel", "", |(_, cell)| cell.channel.into()),
            col("x", "", |(_, cell)| cell.x.into()),
            col("epoch", "", |(race, _)| race.pair.epoch.into()),
            col("procs", "", |(race, _)| {
                Json::Array(vec![race.pair.first.proc.into(), race.pair.second.proc.into()]).into()
            }),
            col("kind", "", |(race, _)| match race.pair.kind {
                RaceKind::WriteWrite => "write-write".into(),
                RaceKind::ReadWrite => "read-write".into(),
            }),
            col("wire", "", |(race, _)| race.pair.wire().into()),
            col("class", "", |(race, _)| {
                if race.is_benign() { "benign" } else { "quality-affecting" }.into()
            }),
            col("reason", "", |(race, _)| race.reason.into()),
        ],
    )
    .table(
        "per_channel",
        &per_channel,
        &[
            col("channel", "channel", |t: &Tally<u16>| t.0.into()),
            col("races", "races", |t| t.1.into()),
            col("benign", "benign", |t| t.2.into()),
        ],
    )
    .table(
        "per_wire",
        &per_wire,
        &[
            col("wire", "wire", |t: &Tally<u32>| t.0.into()),
            col("races", "races", |t| t.1.into()),
            col("benign", "benign", |t| t.2.into()),
        ],
    ))
}

/// `(key, races, benign)` for every key the races fall under, the key
/// with the most races first (ties by key).
fn densest_first<'a, K: Ord + Copy>(
    keyed: impl Iterator<Item = (K, &'a ClassifiedRace)>,
) -> Vec<(K, usize, usize)> {
    let mut tally: BTreeMap<K, (usize, usize)> = BTreeMap::new();
    for (key, race) in keyed {
        let (races, benign) = tally.entry(key).or_default();
        *races += 1;
        *benign += usize::from(race.is_benign());
    }
    let mut rows: Vec<(K, usize, usize)> = tally.into_iter().map(|(k, (t, b))| (k, t, b)).collect();
    rows.sort_by_key(|&(k, t, _)| (std::cmp::Reverse(t), k));
    rows
}

/// A message-passing run's replica audits folded into how many cells
/// were stale, by how much and for how long (log₂ histograms of each
/// audit's diverged cells and mean stale age): the lines `analyze`
/// prints and its JSON fields.
fn staleness(audits: &[ReplicaSnapshot]) -> (String, Vec<(&'static str, Json)>) {
    let (mut cells, mut age) = (Histogram::default(), Histogram::default());
    for s in audits {
        cells.record(s.diverged_cells.into());
        age.record(s.mean_age_ns());
    }
    let procs = audits.iter().map(|s| s.proc).collect::<BTreeSet<_>>().len();
    let max_abs = audits.iter().map(|s| s.max_abs_divergence).max().unwrap_or(0);
    let total_abs: u64 = audits.iter().map(|s| s.total_abs_divergence).sum();
    let (max_cells, max_age) = (cells.max().unwrap_or(0), age.max().unwrap_or(0));
    let text = format!(
        "{} audits by {procs} procs\n  \
         diverged cells/audit: mean {:.1}, max {max_cells} (p50 {}, p99 {})\n  \
         divergence magnitude: max {max_abs} tracks/cell, {total_abs} cell-tracks total\n  \
         stale-cell age: mean-of-means {:.0} ns, max mean {max_age} ns (p50 {} ns, p99 {} ns)\n",
        audits.len(),
        cells.mean(),
        cells.quantile(0.50),
        cells.quantile(0.99),
        age.mean(),
        age.quantile(0.50),
        age.quantile(0.99),
    );
    let fields = vec![
        ("audits", audits.len().into()),
        ("auditing_procs", procs.into()),
        ("max_diverged_cells", max_cells.into()),
        ("mean_diverged_cells", Json::Float(cells.mean(), Some(3))),
        ("max_abs_divergence", max_abs.into()),
        ("total_abs_divergence", total_abs.into()),
        ("max_mean_age_ns", max_age.into()),
        ("mean_age_ns_p50", age.quantile(0.50).into()),
        ("mean_age_ns_p99", age.quantile(0.99).into()),
        ("diverged_cells_p50", cells.quantile(0.50).into()),
        ("diverged_cells_p99", cells.quantile(0.99).into()),
    ];
    (text, fields)
}

/// The registries `list` prints below the experiment ids.
pub fn registries() -> String {
    let mut out = String::from("\nengines (--engine <name>):\n");
    for e in registry() {
        out += &format!("  {:<17} {}\n", e.name, e.summary);
    }
    out += "\nmemory backends (--memory <name>):\n";
    for e in memory_registry() {
        out += &format!("  {:<17} {}\n", e.name, e.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` settings on the serial pool (pool parity is
    /// `tests/parallel_harness.rs`), with `--memory` if given.
    fn quick_cfg(memory_backend: Option<&str>) -> RunCfg {
        let memory_backend = memory_backend.map(str::to_string);
        RunCfg { harness: Harness::serial(), quick: true, memory_backend }
    }

    fn quick(experiment: Experiment) -> Report {
        experiment(&quick_cfg(None)).expect("a quick experiment runs")
    }

    /// Keyed column `key` of the report's last table, as numbers.
    fn numbers(report: &Report, key: &str) -> Vec<f64> {
        let table = report.tables.last().expect("a table");
        let number = |v: &Json| match *v {
            Json::UInt(n) => n as f64,
            Json::Float(x, _) => x,
            Json::Bool(b) => f64::from(u8::from(b)),
            ref other => panic!("{key}: {other} is not a number"),
        };
        table.column(key).into_iter().map(number).collect()
    }

    /// Keyed column `key` of the report's last table, as strings.
    fn strings<'a>(report: &'a Report, key: &str) -> Vec<&'a str> {
        let string = |v: &'a Json| match v {
            Json::Str(s) => s.as_str(),
            other => panic!("{key}: {other} is not a string"),
        };
        report.tables.last().expect("a table").column(key).into_iter().map(string).collect()
    }

    #[test]
    fn table1_shape_and_traffic_ordering() {
        let mbytes = numbers(&quick(table1), "mbytes");
        assert_eq!(mbytes.len(), 12);
        // Within a SendRmtData group, traffic falls as SendLocData grows.
        for g in mbytes.chunks(4) {
            assert!(g[0] >= g[3], "loc=1 traffic {} must be >= loc=20 traffic {}", g[0], g[3]);
        }
    }

    #[test]
    fn table2_shape() {
        let mbytes = numbers(&quick(table2), "mbytes");
        assert_eq!(mbytes.len(), 9);
        // Traffic falls as ReqRmtData grows (fewer requests).
        for g in mbytes.chunks(3) {
            assert!(g[0] >= g[2]);
        }
    }

    #[test]
    fn blocking_study_blocking_never_faster() {
        let report = quick(blocking);
        let nonblocking = numbers(&report, "time_nonblocking");
        let blocking = numbers(&report, "time_blocking");
        assert_eq!(blocking.len(), 3);
        for (row, (b, nb)) in blocking.iter().zip(&nonblocking).enumerate() {
            assert!(b >= nb, "row {row}: blocking {b} s vs non-blocking {nb} s");
        }
    }

    #[test]
    fn table3_traffic_shape() {
        let report = quick(table3);
        assert_eq!(numbers(&report, "line_size"), [4.0, 8.0, 16.0, 32.0]);
        // The robust Table 3 properties on synthetic circuits: long lines
        // cost more than mid-size lines (false-sharing growth), and the
        // traffic is write-dominated (§5.2: >80% of bytes from writes).
        // See EXPERIMENTS.md for why the 4-byte point can sit above the
        // 8-byte point here (spatial merging of clustered route writes).
        let mbytes = numbers(&report, "mbytes");
        assert!(
            mbytes[3] > mbytes[1],
            "32B lines {} must out-traffic 8B lines {}",
            mbytes[3],
            mbytes[1]
        );
        for (line, fraction) in numbers(&report, "write_fraction").iter().enumerate() {
            assert!(*fraction > 0.6, "line {line}: write fraction {fraction} too low");
        }
    }

    #[test]
    fn table3_bus_wt_out_traffics_wbi_and_unknown_backends_are_errors() {
        let at_8_bytes = |backend| {
            let report = table3(&quick_cfg(Some(backend))).expect("registered");
            numbers(&report, "mbytes")[1]
        };
        let (wbi, wt) = (at_8_bytes("bus-wbi"), at_8_bytes("bus-wt"));
        assert!(
            wt > wbi,
            "write-through pays a bus word on every store, so it must out-traffic WBI: \
             {wt} vs {wbi}"
        );
        for experiment in [table3, memory] {
            let err = experiment(&quick_cfg(Some("nope"))).expect_err("no such backend");
            assert!(err.contains("unknown memory backend `nope`"), "{err}");
        }
    }

    #[test]
    fn memory_study_covers_every_backend_and_priority_never_hurts_critical() {
        let report = quick(memory);
        let backends = strings(&report, "backend");
        let circuits = strings(&report, "circuit");
        assert_eq!(backends.len(), 2 * memory_registry().len());
        let column = |key| numbers(&report, key);
        let (mbytes, inval, events) =
            (column("mbytes"), column("inval_mbytes"), column("coherence_events"));
        for circuit in ["small", "tiny"] {
            let by = |name| {
                (0..backends.len())
                    .find(|&i| circuits[i] == circuit && backends[i] == name)
                    .unwrap_or_else(|| panic!("{circuit} has a {name} row"))
            };
            // WBI-semantics backends agree on data traffic; transport differs.
            assert_eq!(mbytes[by("bus-wbi")], mbytes[by("directory")]);
            assert!(inval[by("directory")] <= inval[by("bus-wbi")], "{circuit}");
            // DLS caches nothing, so it has no coherence events or
            // invalidation transport at all.
            assert_eq!((events[by("dls")], inval[by("dls")]), (0.0, 0.0), "{circuit}");
        }
        let fifo = column("fifo_critical_mean_ns");
        for (row, prio) in column("prio_critical_mean_ns").iter().enumerate() {
            assert!(
                *prio <= fifo[row],
                "{} on {}: critical-first must not slow critical requests",
                backends[row],
                circuits[row]
            );
        }
        assert_eq!(report, quick(memory), "the study must be exactly reproducible");
    }

    #[test]
    fn absurd_memory_machines_are_errors_not_panics() {
        let cfg = quick_cfg(None);
        let procs = cfg.procs() as u32;
        // 65 processors overflow the bus and directory holder bitmasks;
        // the study says so before it collects a trace.
        let err = memory_rows(&cfg, MemoryConfig::paper(65, MEMORY_LINE_SIZE)).expect_err("65");
        assert!(err.contains("64"), "{err}");
        let trace = shared_memory_trace(&presets::tiny(), cfg.procs());
        for line_size in [0, 12] {
            let err = memory_rows(&cfg, MemoryConfig::paper(procs, line_size)).expect_err("line");
            assert!(err.contains("power of two"), "{err}");
            let err = traffic_by_backend("bus-wt", &trace, &[8, line_size]).expect_err("bad");
            assert!(err.contains("power of two"), "{err}");
        }
    }

    #[test]
    fn table4_and_5_cover_both_circuits_and_methods() {
        for report in [quick(table4), quick(table5)] {
            let circuits = strings(&report, "circuit");
            assert_eq!(circuits, [["small"; 4], ["tiny"; 4]].concat(), "{}", report.title);
            let methods = strings(&report, "method");
            assert_eq!(methods[..4], methods[4..]);
            assert_eq!(methods.iter().collect::<BTreeSet<_>>().len(), 4);
        }
    }

    #[test]
    fn table6_speedup_improves_with_processors() {
        let report = quick(table6);
        let (speedup, time) = (numbers(&report, "speedup"), numbers(&report, "time_s"));
        assert_eq!(numbers(&report, "procs"), [2.0, 4.0]);
        assert!((speedup[0] - 2.0).abs() < 1e-9, "P=2 speedup is 2 by definition");
        assert!(time[1] < time[0], "4 procs must be faster than 2");
        assert!(speedup[1] > 2.0);
    }

    #[test]
    fn locality_study_round_robin_worse_than_local() {
        let report = quick(locality);
        let (circuits, methods) = (strings(&report, "circuit"), strings(&report, "method"));
        let hops = numbers(&report, "mean_hops");
        let small = |needle| {
            let row =
                (0..hops.len()).find(|&i| circuits[i] == "small" && methods[i].contains(needle));
            hops[row.expect("a row")]
        };
        assert!(small("inf") < small("robin"));
    }

    #[test]
    fn compare_paradigms_traffic_ordering() {
        let mbytes = numbers(&quick(compare), "mbytes");
        // Shared memory must move more bytes than sender-initiated, which
        // must move more than receiver-initiated (§5.2, §6).
        assert_eq!(mbytes.len(), 3);
        assert!(mbytes[0] > mbytes[1]);
        assert!(mbytes[1] > mbytes[2]);
    }

    #[test]
    fn structures_study_orders_traffic() {
        let mbytes = numbers(&quick(structures), "mbytes");
        assert_eq!(mbytes.len(), 3);
        // §4.3.1: the full-region structure "uses a large number of
        // bytes"; the bounding-box scheme reduces traffic relative to it.
        let (bbox, full) = (mbytes[0], mbytes[1]);
        assert!(full > bbox, "full {full} vs bbox {bbox}");
    }

    #[test]
    fn overshoot_study_zero_examines_less_work() {
        let time = numbers(&quick(overshoot), "time_s");
        assert_eq!(time.len(), 3);
        // More overshoot = more candidates = more modelled time.
        assert!(time[0] <= time[2]);
    }

    #[test]
    fn contention_study_runs_and_contention_counter_responds() {
        let rows = contention_runs(&quick_cfg(None));
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
        let report = quick(distribution);
        let (time, packets) = (numbers(&report, "time_s"), numbers(&report, "packets"));
        assert_eq!(time.len(), 2);
        let (fixed, dynamic) = (time[0], time[1]);
        assert!(
            dynamic >= fixed * 0.9,
            "dynamic should not significantly beat static: {dynamic} vs {fixed}"
        );
        assert!(packets[1] > packets[0], "requests/grants add packets");
    }

    #[test]
    fn faults_study_rows_are_deterministic_and_loss_costs_traffic() {
        let report = quick(faults);
        let loss = numbers(&report, "loss_bp");
        assert_eq!(loss, [0.0, 1000.0, 0.0, 1000.0], "two schedules x two loss points");
        let (dropped, resent) = (numbers(&report, "dropped"), numbers(&report, "retransmits"));
        for clean in [0, 2] {
            assert_eq!(dropped[clean], 0.0);
            assert_eq!(resent[clean], 0.0, "fault-free rows run the unmodified protocol");
            let lossy = clean + 1;
            assert!(dropped[lossy] > 0.0, "10% loss must drop packets");
            assert!(resent[lossy] > 0.0, "drops must force retransmissions");
        }
        assert_eq!(numbers(&report, "degraded"), [0.0; 4]);
        assert_eq!(report, quick(faults), "the study must be exactly reproducible");
    }

    #[test]
    fn quick_study_survives_every_single_fault() {
        let report = quick(chaos);
        assert_eq!(report.tables[0].column("circuit").len(), 1, "one probe");
        // clean + 1 worker crash + restart + coordinator + stall.
        let scenarios = strings(&report, "scenario");
        assert_eq!(
            scenarios,
            ["clean", "worker-crash", "worker-restart", "coordinator-crash", "stall"]
        );
        assert_eq!(report.failure, None, "every scenario terminates, routes every wire, repeats");
        assert_eq!(numbers(&report, "watchdog"), [0.0; 5]);
        assert_eq!(numbers(&report, "degraded"), [0.0; 5]);
        assert_eq!(numbers(&report, "repeat_identical"), [1.0; 5]);

        let at = |name| scenarios.iter().position(|s| *s == name).expect("scenario present");
        let column = |key| numbers(&report, key);
        let (dead, failovers) = (column("declared_dead"), column("failovers"));
        assert_eq!(dead[at("clean")], 0.0);
        assert!(column("checkpoints")[at("clean")] > 0.0);

        // At least the successor's claim; crossed claims during churn
        // may add a re-assertion (the succession invariant heals them),
        // so the exact count is protocol-churn-dependent. Determinism
        // is covered by the repeat_identical check above.
        assert!(failovers[at("coordinator-crash")] >= 1.0, "no failover");
        assert!(column("reassigned")[at("coordinator-crash")] > 0.0);

        // Downtime (T/20) is inside the suspect window, so the restart
        // recovers silently — no false death, no reassignment.
        assert_eq!(dead[at("worker-restart")], 0.0);

        // Failures cost time, but boundedly: re-work is capped by the
        // checkpoint interval, and the dominant absolute cost is the
        // reliable layer's retransmit tail toward the dead peer (~1.3
        // simulated seconds before it gives up).
        let time = column("time_s");
        for (scenario, time_s) in scenarios.iter().zip(&time) {
            let clean_s = time[at("clean")];
            assert!(*time_s <= clean_s + 2.0, "{scenario} took {time_s}s vs clean {clean_s}s");
        }
    }

    fn snap(proc: usize, diverged: u32, max_div: u32, total: u64, age_sum: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            proc,
            at_ns: 1_000 * proc as u64,
            wires_routed: 4,
            diverged_cells: diverged,
            total_abs_divergence: total,
            max_abs_divergence: max_div,
            stale_age_sum_ns: age_sum,
        }
    }

    #[test]
    fn empty_audit_set_folds_to_zeros() {
        let (text, fields) = staleness(&[]);
        assert!(text.starts_with("0 audits by 0 procs\n"), "{text}");
        for (key, value) in fields {
            let zero = if key == "mean_diverged_cells" {
                Json::Float(0.0, Some(3))
            } else {
                Json::UInt(0)
            };
            assert_eq!(value, zero, "{key}");
        }
    }

    #[test]
    fn aggregates_cover_all_snapshots() {
        let audits = [snap(0, 10, 2, 14, 5_000), snap(1, 4, 1, 4, 800), snap(0, 0, 0, 0, 0)];
        let (_, fields) = staleness(&audits);
        let field = |key| fields.iter().find(|f| f.0 == key).map(|f| f.1.clone());
        for (key, value) in [
            ("audits", 3),
            ("auditing_procs", 2),
            ("max_diverged_cells", 10),
            ("max_abs_divergence", 2),
            ("total_abs_divergence", 18),
            // snap(0,..) has mean age 500 ns; snap(1,..) 200 ns.
            ("max_mean_age_ns", 500),
            // Diverged cells 0, 4 and 10: the median's log₂ bucket is 4..=7.
            ("diverged_cells_p50", 7),
            ("diverged_cells_p99", 10),
        ] {
            assert_eq!(field(key), Some(Json::UInt(value)), "{key}");
        }
        let Some(Json::Float(mean, _)) = field("mean_diverged_cells") else { panic!("a mean") };
        assert!((mean - 14.0 / 3.0).abs() < 1e-9);
    }

    /// Every engine of the table over hostile processor counts: a report
    /// of the run it was asked for, or an `Err` naming the processor
    /// count it cannot take — never a panic or a hang.
    #[test]
    fn analyze_takes_every_engine_at_any_processor_count() {
        let cfg = RunCfg { harness: Harness::with_threads(1), quick: true, memory_backend: None };
        let procs = [0, 1, 3, 65, 256, 18_446_744_073_709_551_557, usize::MAX];
        for entry in registry() {
            for &p in &procs {
                let case = format!("{} P={p}", entry.name);
                match analyze(&cfg, entry.name, Some(p)) {
                    Err(why) if entry.name == "shmem-threads" => {
                        assert!(why.contains("shmem-emul"), "{case}: {why}")
                    }
                    Ok(_) if entry.name == "shmem-threads" => panic!("{case}: analyzed"),
                    Ok(report) => {
                        let ran = if entry.name == "sequential" { 1 } else { p };
                        assert_eq!(report.header[0], ("engine", entry.name.into()), "{case}");
                        assert!(report.header.contains(&("procs", ran.into())), "{case}");
                    }
                    Err(why) => assert!(why.contains("proc"), "{case}: {why}"),
                }
            }
        }
    }
}
