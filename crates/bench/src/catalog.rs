//! Every experiment as a [`Report`]: the run settings the CLI passes in
//! ([`RunCfg`]) and, per experiment id, the study it runs and the
//! columns of its table — the one place a header, a JSON key or a
//! precision is written down.

use std::collections::{BTreeMap, BTreeSet};

use locus_analysis::classify::{classify_races, ClassifiedRace};
use locus_analysis::race::{detect, RaceKind};
use locus_circuit::{presets, Circuit, GridCell};
use locus_coherence::{build_memory_model, memory_registry, MemRef, MemoryConfig};
use locus_msgpass::{run_msgpass, MsgPassConfig, MsgPassOutcome, ReplicaSnapshot, UpdateSchedule};
use locus_obs::export::Json;
use locus_obs::Histogram;
use locus_router::engine::EngineRun;
use locus_router::render::{render_cost_array, render_regions};
use locus_router::{RegionMap, RouterParams, SequentialRouter};
use locus_shmem::{addr_cell, ShmemConfig, ShmemEmulator};
use locusroute::engines::{self, registry};

use crate::experiments as ex;
use crate::report::{col, fixed, fixed_as, float, fraction, text, Cell, Report};
use crate::{chaos, Harness};

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

    /// The second circuit for two-circuit tables (`--quick`: tiny).
    fn circuit2(&self) -> Circuit {
        self.pick(presets::tiny as fn() -> Circuit, presets::mdc)()
    }

    /// Processor count (`--quick`: 4).
    pub fn procs(&self) -> usize {
        self.pick(4, ex::PAPER_PROCS)
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

/// A measure not every engine has (a clock, traffic), to 3 places.
fn opt3(v: Option<f64>) -> Cell {
    v.map_or(Json::Null.into(), |v| fixed(v, 3))
}

fn update_sweep(
    title: String,
    [a, b]: [(&'static str, &'static str); 2],
    rows: &[(u32, u32, MsgPassOutcome)],
) -> Result<Report, String> {
    Ok(Report::new(title).table(
        "rows",
        rows,
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

/// `table1`.
pub fn table1(cfg: &RunCfg) -> Result<Report, String> {
    update_sweep(
        format!("Table 1: network traffic using sender initiated updates ({})", cfg.setting()),
        [("send_rmt_data", "SendRmtData"), ("send_loc_data", "SendLocData")],
        &ex::table1(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `table2`.
pub fn table2(cfg: &RunCfg) -> Result<Report, String> {
    update_sweep(
        format!(
            "Table 2: traffic using non-blocking receiver initiated updates ({})",
            cfg.setting()
        ),
        [("req_loc_data", "ReqLocData"), ("req_rmt_data", "ReqRmtData")],
        &ex::table2(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `blocking`.
pub fn blocking(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(format!(
        "§5.1.3: blocking vs non-blocking receiver initiated ({})",
        cfg.setting()
    ))
    .table(
        "rows",
        &ex::blocking_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
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

/// `mixed`.
pub fn mixed(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(format!("§5.1.3: mixed update schedules ({})", cfg.setting())).table(
        "rows",
        &ex::mixed_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
        &[
            col("strategy", "strategy", |r| r.0.into()),
            col("ckt_ht", "Ckt Ht.", |r| r.1.quality.circuit_height.into()),
            col("occupancy", "Occup. Factor", |r| r.1.quality.occupancy_factor.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.1.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.1.time_secs, 3)),
        ],
    ))
}

/// `table3`: the line-size sweep through `--memory <backend>` (default
/// `bus-wbi`, the paper's Write-Back-with-Invalidate bus).
pub fn table3(cfg: &RunCfg) -> Result<Report, String> {
    let backend = cfg.memory_backend.as_deref();
    let rows = ex::table3_backend(
        &cfg.circuit(),
        cfg.procs(),
        &[4, 8, 16, 32],
        backend.unwrap_or("bus-wbi"),
    )?;
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

/// `table4`.
pub fn table4(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(
        "Table 4: effect of locality, message passing (sender initiated; last column: \
         receiver-initiated traffic)",
    )
    .table(
        "rows",
        &ex::table4(&cfg.harness, &[&cfg.circuit(), &cfg.circuit2()], cfg.procs()),
        &[
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.2.quality.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.2.mbytes, 3)),
            col("time_s", "Time (s)", |r| fixed(r.2.time_secs, 3)),
            col("mbytes_receiver", "MB (recv-init)", |r| fixed(r.3.mbytes, 3)),
        ],
    ))
}

/// `table5`.
pub fn table5(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new("Table 5: effect of locality in shared memory version (8-byte lines)").table(
        "rows",
        &ex::table5(&cfg.harness, &[&cfg.circuit(), &cfg.circuit2()], cfg.procs()),
        &[
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("ckt_ht", "Ckt. Height", |r| r.2.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| fixed(r.3.mbytes(), 3)),
        ],
    ))
}

/// `table6`.
pub fn table6(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(format!(
        "Table 6: effect of number of processors ({}, sender initiated)",
        cfg.label()
    ))
    .table(
        "rows",
        &ex::table6(&cfg.harness, &cfg.circuit(), cfg.proc_sweep()),
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

/// `locality`.
pub fn locality(cfg: &RunCfg) -> Result<Report, String> {
    let procs: &[usize] = cfg.pick(&[4], &[4, 9, 16]);
    Ok(Report::new("§5.3.3: locality measure (mean hops routing proc -> owner)").table(
        "rows",
        &ex::locality_study(&cfg.harness, &[&cfg.circuit(), &cfg.circuit2()], procs),
        &[
            col("circuit", "Ckt.", |r| r.0.as_str().into()),
            col("method", "Asmt. Method", |r| r.1.into()),
            col("procs", "Procs", |r| r.2.into()),
            col("mean_hops", "Mean hops", |r| fixed(r.3.mean_hops, 2)),
            col("owned_fraction", "Owned cells", |r| fraction(r.3.owned_fraction, 4)),
        ],
    ))
}

/// `speedup`: Table 6's sweep on both circuits, the message-passing
/// speedup on the simulator. The threaded router's wall-clock speedup is
/// host time, which `benchmark/` measures (`shmem.threads_run_ms.{p1,pN}`).
pub fn speedup(cfg: &RunCfg) -> Result<Report, String> {
    let mut rows = Vec::new();
    for c in [cfg.circuit(), cfg.circuit2()] {
        let sweep = ex::table6(&cfg.harness, &c, cfg.proc_sweep());
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

/// `compare`.
pub fn compare(cfg: &RunCfg) -> Result<Report, String> {
    Ok(Report::new(format!("§5.2: shared memory vs message passing ({})", cfg.setting())).table(
        "rows",
        &ex::compare_paradigms(&cfg.harness, &cfg.circuit(), cfg.procs()),
        &[
            col("approach", "approach", |r| r.0.into()),
            col("ckt_ht", "Ckt. Ht.", |r| r.1.outcome.quality.circuit_height.into()),
            col("mbytes", "MBytes Xfrd.", |r| opt3(r.1.mbytes)),
        ],
    ))
}

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

/// `structures`.
pub fn structures(cfg: &RunCfg) -> Result<Report, String> {
    ablation(
        format!("Ablation §4.3.1: update packet structures ({}, sender initiated)", cfg.setting()),
        &ex::structures_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `distribution`.
pub fn distribution(cfg: &RunCfg) -> Result<Report, String> {
    ablation(
        format!(
            "Ablation §4.2: static vs dynamic wire distribution ({}, 1 iteration)",
            cfg.setting()
        ),
        &ex::distribution_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `overshoot`.
pub fn overshoot(cfg: &RunCfg) -> Result<Report, String> {
    ablation(
        format!("Ablation: two-bend candidate channel overshoot ({})", cfg.setting()),
        &ex::overshoot_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `contention`.
pub fn contention(cfg: &RunCfg) -> Result<Report, String> {
    ablation(
        format!("Ablation: network contention model on/off ({}, eager sender)", cfg.setting()),
        &ex::contention_study(&cfg.harness, &cfg.circuit(), cfg.procs()),
    )
}

/// `faults`: the resilience study — uniform packet loss × update
/// schedule with the reliability protocol on.
pub fn faults(cfg: &RunCfg) -> Result<Report, String> {
    let losses = cfg.pick(ex::FAULT_LOSSES_BP_QUICK, ex::FAULT_LOSSES_BP);
    Ok(Report::new(format!(
        "Resilience study: packet loss vs reliability protocol ({})",
        cfg.setting()
    ))
    .field("circuit", cfg.label())
    .field("procs", cfg.procs())
    .table(
        "rows",
        &ex::faults_study(&cfg.harness, &cfg.circuit(), cfg.procs(), losses),
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

/// `chaos`: the node-failure chaos grid — a single mid-run crash,
/// crash-with-restart, coordinator loss, or stall injected into the
/// message-passing engine with checkpoint/restore recovery on
/// (`BENCH_resilience.json`). Fails if any scenario degraded, left a
/// wire to the watchdog, or did not reproduce.
pub fn chaos(cfg: &RunCfg) -> Result<Report, String> {
    let (probes, rows) = chaos::chaos_study(&cfg.harness, cfg.quick);
    let all_ok = rows.iter().all(chaos::ok);
    let mut title = String::new();
    for (circuit, procs, probe, heartbeat_ns) in &probes {
        title += &format!(
            "probe: {circuit} ({procs} procs) clean {:.3}s (routing {:.3}s) -> heartbeat {} ms, \
             suspect window {} ms\n",
            probe.time_secs,
            probe.routing_done_secs,
            heartbeat_ns / 1_000_000,
            heartbeat_ns * chaos::SUSPECT_AFTER as u64 / 1_000_000,
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
                col("circuit", "", |p| p.0.as_str().into()),
                col("procs", "", |p| p.1.into()),
                col("base_time_s", "", |p| fixed(p.2.time_secs, 6)),
                col("routing_s", "", |p| fixed(p.2.routing_done_secs, 6)),
                col("heartbeat_ns", "", |p| p.3.into()),
                col("suspect_after", "", |_| chaos::SUSPECT_AFTER.into()),
            ],
        )
        .table(
            "rows",
            &rows,
            &[
                col("circuit", "circuit", |r| r.0.as_str().into()),
                col("procs", "", |r| r.1.into()),
                col("scenario", "scenario", |r| r.2.into()),
                col("checkpoint_every", "ckpt", |r| r.3.into()),
                col("fault_frac", "at", |r| float(r.4)),
                col("ckt_ht", "ckt ht", |r| r.5.quality.circuit_height.into()),
                col("time_s", "time s", |r| fixed_as(r.5.time_secs, 6, 3)),
                col("mbytes", "", |r| fixed(r.5.mbytes, 6)),
                // The terminal shows the two ratios next to the time; the
                // file keeps them where its readers found them, after
                // the counters.
                col("", "vs clean", |r| text(format!("{:.2}x", r.7))),
                col("", "mb vs", |r| text(format!("{:.2}x", r.8))),
                col("checkpoints", "ckpts", |r| r.5.recovery.checkpoints_taken.into()),
                col("checkpoint_bytes", "", |r| r.5.recovery.checkpoint_bytes.into()),
                col("declared_dead", "dead", |r| r.5.recovery.nodes_declared_dead.into()),
                col("reassigned", "reassign", |r| r.5.recovery.wires_reassigned.into()),
                col("rollbacks", "rollbk", |r| r.5.recovery.rollbacks.into()),
                col("failovers", "failover", |r| r.5.recovery.coordinator_failovers.into()),
                col("duplicates", "dup", |r| r.5.recovery.duplicate_routes.into()),
                col("watchdog", "", |r| r.5.watchdog_recoveries.into()),
                col("degraded", "", |r| r.5.degraded.is_some().into()),
                col("time_vs_clean", "", |r| fixed(r.7, 6)),
                col("mbytes_vs_clean", "", |r| fixed(r.8, 6)),
                col("repeat_identical", "", |r| r.6.into()),
                col("", "status", |r| text(if chaos::ok(r) { "ok" } else { "FAIL" })),
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

/// `memory`: the memory-system backend study — every registered backend
/// (or the one `--memory` names) replays the same per-circuit
/// shared-memory trace over the same mesh machine (`BENCH_memory.json`).
pub fn memory(cfg: &RunCfg) -> Result<Report, String> {
    let line_size = ex::MEMORY_STUDY_LINE_SIZE;
    // An unknown `--memory` name is reported before the study runs.
    if let Some(backend) = &cfg.memory_backend {
        build_memory_model(backend, MemoryConfig::paper(cfg.procs() as u32, line_size))?;
    }
    let (a, b) = (cfg.circuit(), cfg.circuit2());
    let mut rows = ex::memory_study(&cfg.harness, &[&a, &b], cfg.procs(), line_size)?;
    if let Some(backend) = &cfg.memory_backend {
        rows.retain(|(_, out)| out.backend == backend.as_str());
    }
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
