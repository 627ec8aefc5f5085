//! `locus-experiments` — regenerates every table and figure of
//! Martonosi & Gupta (ICPP 1989) at the paper's full settings.
//!
//! Usage:
//!
//! ```text
//! locus-experiments <table1|table2|table3|table4|table5|table6|
//!                    blocking|mixed|locality|speedup|compare|faults|
//!                    serve|chaos|memory|figure1|figure2|figure3|list|sweeps|all>
//!                   [--quick] [--threads N] [--out <file>]
//!                   [--report <file>] [--memory <backend>]
//!                   [--trace-out <file>] [--metrics-out <file>]
//! locus-experiments --engine <name> [--circuit <name>] [--procs N] [--quick]
//! locus-experiments analyze [--engine <name>] [--procs N] [--quick]
//!                           [--report <file>]
//! locus-experiments --quality-check
//! ```
//!
//! Independent sweep points run concurrently on a small scoped-thread
//! pool sized by `--threads` (default: the host's available
//! parallelism). Engines are deterministic, so the output is identical
//! at any thread count; `sweeps` demonstrates that by running the
//! Table 1 sweep serially and in parallel, checking the rows match, and
//! recording the timings in `BENCH_sweeps.json` (see `--out`).
//!
//! `list` prints every experiment id plus every registered routing
//! engine; `--engine <name>` routes one circuit through a single
//! registry engine and prints its headline metrics (`--circuit
//! <tiny|small|bnre|mdc|powerlaw>` picks the preset). `serve` runs the
//! routing-as-a-service study — a seeded rush-hour workload swept from
//! underload to past saturation under each backpressure policy — and
//! writes the byte-identical `BENCH_service.json` (`--report` overrides
//! the path). `chaos` runs the node-failure chaos grid — one
//! deterministic crash, restart, coordinator loss, or stall injected
//! mid-run into the message-passing engine with checkpoint/restore
//! recovery on — verifies every scenario terminates with all wires
//! routed and reproduces bitwise, and writes `BENCH_resilience.json`.
//! `memory` replays each circuit's shared-memory trace
//! through every registered memory-system backend (bus-wbi, bus-wt,
//! directory, dls) and writes `BENCH_memory.json`; `--memory <backend>`
//! (alias `--protocol`) restricts the study to one backend, and on
//! `table3` reruns the line-size sweep through that backend — e.g.
//! `table3 --memory bus-wt` is the write-through ablation. `--quick` shrinks
//! any experiment to a CI-sized configuration (small synthetic circuit,
//! 4 processors) — `locus-experiments compare --quick` is the CI smoke
//! step.
//!
//! `analyze` replays one engine's coherence trace through the
//! vector-clock race detector and classifies every unsynchronized
//! conflicting pair as benign or quality-affecting (for the
//! message-passing engines it instead audits replica staleness against
//! the ground-truth cost array). `--report <file>` writes the
//! machine-readable JSON report.
//!
//! `--quality-check` routes bnrE and MDC evaluating every connection with
//! both the optimized span kernel and the retained reference evaluator,
//! and exits nonzero on any divergence in route, cost, candidate count,
//! or cells examined.
//!
//! `--trace-out` writes a Chrome trace-event JSON (load it at
//! `chrome://tracing`) and `--metrics-out` a flat metrics JSON, both
//! captured from one instrumented paper-settings message-passing run
//! (bnrE, 16 processors, sender-initiated updates).
//!
//! Run with `--release`; the full suite takes a few minutes.

use std::time::Instant;

use locus_bench::fmt::render_table;
use locus_bench::sweep::Harness;
use locus_bench::*;
use locus_circuit::presets;
use locusroute::engines::{build_engine, registry};
use locusroute::router::engine::EngineCtx;
use locusroute::router::RouterParams;

/// Settings shared by every experiment runner: the sweep harness and
/// whether to shrink to the CI-sized quick configuration.
struct RunCfg {
    harness: Harness,
    quick: bool,
    /// `--memory <backend>` (alias `--protocol`): restrict memory-system
    /// experiments to one registered backend.
    memory_backend: Option<String>,
}

impl RunCfg {
    /// The benchmark circuit (`--quick`: the small synthetic preset).
    fn circuit(&self) -> locus_circuit::Circuit {
        if self.quick {
            presets::small()
        } else {
            presets::bnr_e()
        }
    }

    /// The second circuit for two-circuit tables (`--quick`: tiny).
    fn circuit2(&self) -> locus_circuit::Circuit {
        if self.quick {
            presets::tiny()
        } else {
            presets::mdc()
        }
    }

    /// Processor count (`--quick`: 4).
    fn procs(&self) -> usize {
        if self.quick {
            4
        } else {
            PAPER_PROCS
        }
    }

    /// Processor sweep for Table 6 / speedup (`--quick`: {2,4}).
    fn proc_sweep(&self) -> &'static [usize] {
        if self.quick {
            &[2, 4]
        } else {
            &[2, 4, 9, 16]
        }
    }

    /// Short circuit label for table titles (paper naming).
    fn label(&self) -> &'static str {
        if self.quick {
            "small"
        } else {
            "bnrE"
        }
    }

    fn setting(&self) -> String {
        format!("{}, {} procs", self.label(), self.procs())
    }
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

fn run_table1(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = table1(&cfg.harness, &c, cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.a),
                format!("{}", r.b),
                format!("{}", r.ckt_ht),
                format!("{}", r.occupancy),
                f3(r.mbytes),
                f3(r.time_s),
            ]
        })
        .collect();
    println!("Table 1: network traffic using sender initiated updates ({})\n", cfg.setting());
    println!(
        "{}",
        render_table(
            &["SendRmtData", "SendLocData", "Ckt Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)"],
            &data
        )
    );
}

fn run_table2(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = table2(&cfg.harness, &c, cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.a),
                format!("{}", r.b),
                format!("{}", r.ckt_ht),
                format!("{}", r.occupancy),
                f3(r.mbytes),
                f3(r.time_s),
            ]
        })
        .collect();
    println!(
        "Table 2: traffic using non-blocking receiver initiated updates ({})\n",
        cfg.setting()
    );
    println!(
        "{}",
        render_table(
            &["ReqLocData", "ReqRmtData", "Ckt Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)"],
            &data
        )
    );
}

fn run_blocking(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = blocking_study(&cfg.harness, &c, cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("({},{})", r.schedule.0, r.schedule.1),
                format!("{}", r.ht_nonblocking),
                format!("{}", r.ht_blocking),
                f3(r.time_nonblocking),
                f3(r.time_blocking),
                format!("{:+.1}%", (r.time_blocking / r.time_nonblocking - 1.0) * 100.0),
            ]
        })
        .collect();
    println!("§5.1.3: blocking vs non-blocking receiver initiated ({})\n", cfg.setting());
    println!(
        "{}",
        render_table(
            &["(ReqLoc,ReqRmt)", "Ht nonblk", "Ht blk", "T nonblk (s)", "T blk (s)", "T delta"],
            &data
        )
    );
}

fn run_mixed(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = mixed_study(&cfg.harness, &c, cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.ckt_ht),
                format!("{}", r.occupancy),
                f3(r.mbytes),
                f3(r.time_s),
            ]
        })
        .collect();
    println!("§5.1.3: mixed update schedules ({})\n", cfg.setting());
    println!(
        "{}",
        render_table(&["strategy", "Ckt Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)"], &data)
    );
}

fn run_table3(cfg: &RunCfg) {
    let c = cfg.circuit();
    let (rows, protocol) = match &cfg.memory_backend {
        Some(backend) => {
            let rows =
                table3_backend(&c, cfg.procs(), &[4, 8, 16, 32], backend).unwrap_or_else(|msg| {
                    eprintln!("{msg}");
                    std::process::exit(2);
                });
            (rows, backend.as_str())
        }
        None => (table3(&cfg.harness, &c, cfg.procs(), &[4, 8, 16, 32]), "WBI"),
    };
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.line_size),
                format!("{:.2}", r.mbytes),
                format!("{:.0}%", r.write_fraction * 100.0),
                format!("{}", r.invalidations),
            ]
        })
        .collect();
    println!("Table 3: shared-memory traffic vs cache line size ({}, {protocol})\n", cfg.setting());
    println!(
        "{}",
        render_table(
            &["Cache Line Size", "MBytes Transferred", "write-caused", "invalidations"],
            &data
        )
    );
}

fn run_table4(cfg: &RunCfg) {
    let a = cfg.circuit();
    let b = cfg.circuit2();
    let rows = table4(&cfg.harness, &[&a, &b], cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.circuit.clone(),
                r.method.clone(),
                format!("{}", r.ckt_ht),
                f3(r.mbytes),
                f3(r.time_s),
                f3(r.mbytes_receiver),
            ]
        })
        .collect();
    println!("Table 4: effect of locality, message passing (sender initiated; last column: receiver-initiated traffic)\n");
    println!(
        "{}",
        render_table(
            &["Ckt.", "Asmt. Method", "Ckt. Ht.", "MBytes Xfrd.", "Time (s)", "MB (recv-init)"],
            &data
        )
    );
}

fn run_table5(cfg: &RunCfg) {
    let a = cfg.circuit();
    let b = cfg.circuit2();
    let rows = table5(&cfg.harness, &[&a, &b], cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.circuit.clone(), r.method.clone(), format!("{}", r.ckt_ht), f3(r.mbytes)])
        .collect();
    println!("Table 5: effect of locality in shared memory version (8-byte lines)\n");
    println!("{}", render_table(&["Ckt.", "Asmt. Method", "Ckt. Height", "MBytes Xfrd."], &data));
}

fn run_table6(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = table6(&cfg.harness, &c, cfg.proc_sweep());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.procs),
                format!("{}", r.ckt_ht),
                format!("{}", r.occupancy),
                f3(r.mbytes),
                f3(r.time_s),
                format!("{:.1}", r.speedup),
            ]
        })
        .collect();
    println!("Table 6: effect of number of processors ({}, sender initiated)\n", cfg.label());
    println!(
        "{}",
        render_table(
            &["Num Procs.", "Ckt. Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)", "Speedup"],
            &data
        )
    );
}

fn run_locality(cfg: &RunCfg) {
    let a = cfg.circuit();
    let b = cfg.circuit2();
    let procs: &[usize] = if cfg.quick { &[4] } else { &[4, 9, 16] };
    let rows = locality_study(&cfg.harness, &[&a, &b], procs);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.circuit.clone(),
                r.method.clone(),
                format!("{}", r.procs),
                format!("{:.2}", r.mean_hops),
                format!("{:.0}%", r.owned_fraction * 100.0),
            ]
        })
        .collect();
    println!("§5.3.3: locality measure (mean hops routing proc -> owner)\n");
    println!(
        "{}",
        render_table(&["Ckt.", "Asmt. Method", "Procs", "Mean hops", "Owned cells"], &data)
    );
}

fn run_speedup(cfg: &RunCfg) {
    let a = cfg.circuit();
    let b = cfg.circuit2();
    let rows = speedup_study(&cfg.harness, &[&a, &b], cfg.proc_sweep());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                r.circuit.clone(),
                format!("{}", r.procs),
                format!("{:.4}", r.time_s),
                format!("{:.1}", r.speedup),
            ]
        })
        .collect();
    println!("§5.4: speedup (relative to 2-processor run, x2)\n");
    println!("{}", render_table(&["engine", "Ckt.", "Procs", "Time (s)", "Speedup"], &data));
}

fn ablation_table(title: &str, rows: &[locus_bench::AblationRow]) {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{}", r.ckt_ht),
                f3(r.mbytes),
                f3(r.time_s),
                format!("{}", r.packets),
            ]
        })
        .collect();
    println!("{title}\n");
    println!(
        "{}",
        render_table(&["variant", "Ckt. Ht.", "MBytes Xfrd.", "Time (s)", "packets"], &data)
    );
}

fn run_structures(cfg: &RunCfg) {
    let c = cfg.circuit();
    ablation_table(
        &format!("Ablation §4.3.1: update packet structures ({}, sender initiated)", cfg.setting()),
        &structures_study(&cfg.harness, &c, cfg.procs()),
    );
}

fn run_overshoot(cfg: &RunCfg) {
    let c = cfg.circuit();
    ablation_table(
        &format!("Ablation: two-bend candidate channel overshoot ({})", cfg.setting()),
        &overshoot_study(&cfg.harness, &c, cfg.procs()),
    );
}

fn run_contention(cfg: &RunCfg) {
    let c = cfg.circuit();
    ablation_table(
        &format!("Ablation: network contention model on/off ({}, eager sender)", cfg.setting()),
        &contention_study(&cfg.harness, &c, cfg.procs()),
    );
}

fn run_distribution(cfg: &RunCfg) {
    let c = cfg.circuit();
    ablation_table(
        &format!(
            "Ablation §4.2: static vs dynamic wire distribution ({}, 1 iteration)",
            cfg.setting()
        ),
        &distribution_study(&cfg.harness, &c, cfg.procs()),
    );
}

/// `faults`: the resilience study — uniform packet loss × update
/// schedule with the reliability protocol on. `--report FILE` writes the
/// machine-readable JSON rows.
fn run_faults(cfg: &RunCfg, report_out: Option<String>) {
    let c = cfg.circuit();
    let losses = if cfg.quick { FAULT_LOSSES_BP_QUICK } else { FAULT_LOSSES_BP };
    let rows = faults_study(&cfg.harness, &c, cfg.procs(), losses);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.schedule.to_string(),
                format!("{:.1}%", r.loss_bp as f64 / 100.0),
                format!("{}", r.ckt_ht),
                f3(r.time_s),
                f3(r.mbytes),
                format!("{}", r.dropped),
                format!("{}", r.retransmits),
                format!("{}", r.acks),
                format!("{:.3}", r.divergence),
                if r.degraded { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    println!("Resilience study: packet loss vs reliability protocol ({})\n", cfg.setting());
    println!(
        "{}",
        render_table(
            &[
                "schedule", "loss", "Ckt Ht.", "Time (s)", "MBytes", "dropped", "resent", "acks",
                "diverg.", "degraded",
            ],
            &data
        )
    );
    if let Some(path) = report_out {
        write_or_die(&path, &faults_report_json(&rows, cfg.label(), cfg.procs()));
        println!("faults: wrote {path}");
    }
}

/// [`run_faults`] adapter for the `all` sequence (no report file).
fn run_faults_known(cfg: &RunCfg) {
    run_faults(cfg, None);
}

/// `serve`: the routing-as-a-service study — offered load × backpressure
/// policy on the rush-hour workload. `report_out = Some(path)` writes the
/// byte-identical `BENCH_service.json`.
fn run_serve(cfg: &RunCfg, report_out: Option<String>) {
    use locus_service::WorkerPool;
    let pool = WorkerPool::with_threads(cfg.harness.threads());
    let study = service_study(&pool, cfg.quick);
    let data: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.load),
                r.policy.to_string(),
                format!("{}", r.submitted),
                format!("{}", r.completed),
                format!("{}", r.shed),
                format!("{}", r.rejected),
                format!("{}", r.p50_wait_ms),
                format!("{}", r.p95_wait_ms),
                format!("{}", r.p99_wait_ms),
                format!("{}", r.p95_service_ms),
                format!("{:.2}", r.throughput_jps),
                format!("{:.0}%", r.utilization * 100.0),
                format!("{:.0}%", r.slo_ok * 100.0),
            ]
        })
        .collect();
    println!(
        "Routing as a service: offered load x backpressure ({} workers, queue {}, {} virtual ms)\n",
        study.workers, study.queue_capacity, study.duration_ms
    );
    println!(
        "{}",
        render_table(
            &[
                "load", "policy", "subm", "done", "shed", "rej", "p50 wait", "p95 wait",
                "p99 wait", "p95 svc", "jobs/s", "util", "SLO ok",
            ],
            &data
        )
    );
    match study.knee_load {
        Some(k) => println!(
            "knee: load {k} is the first swept level whose blocking p95 queue wait \
             exceeds the {SERVICE_SLO_WAIT_MS} ms SLO"
        ),
        None => println!("knee: not reached within the swept loads"),
    }
    if let Some(path) = report_out {
        write_or_die(&path, &service_report_json(&study, cfg.quick));
        println!("serve: wrote {path}");
    }
}

/// [`run_serve`] adapter for the `all` sequence (no report file).
fn run_serve_known(cfg: &RunCfg) {
    run_serve(cfg, None);
}

/// `chaos`: the node-failure chaos grid — a single mid-run crash,
/// crash-with-restart, coordinator loss, or stall injected into the
/// message-passing engine with checkpoint/restore recovery on.
/// `report_out = Some(path)` writes the byte-identical
/// `BENCH_resilience.json`. Exits nonzero if any scenario degraded,
/// left a wire to the watchdog, or failed the repeat-identical check.
fn run_chaos(cfg: &RunCfg, report_out: Option<String>) {
    let study = chaos_study(&cfg.harness, cfg.quick);
    for p in &study.probes {
        println!(
            "probe: {} ({} procs) clean {:.3}s (routing {:.3}s) -> heartbeat {} ms, suspect window {} ms",
            p.circuit,
            p.procs,
            p.base_time_s,
            p.routing_s,
            p.heartbeat_ns / 1_000_000,
            p.heartbeat_ns * p.suspect_after as u64 / 1_000_000,
        );
    }
    let data: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.circuit.clone(),
                r.scenario.to_string(),
                format!("{}", r.checkpoint_every),
                format!("{}", r.fault_frac),
                format!("{}", r.ckt_ht),
                format!("{:.3}", r.time_s),
                format!("{:.2}x", r.time_vs_clean),
                format!("{:.2}x", r.mbytes_vs_clean),
                format!("{}", r.checkpoints),
                format!("{}", r.declared_dead),
                format!("{}", r.reassigned),
                format!("{}", r.rollbacks),
                format!("{}", r.failovers),
                format!("{}", r.duplicates),
                if r.ok() { "ok".to_string() } else { "FAIL".to_string() },
            ]
        })
        .collect();
    println!(
        "\nChaos grid: single node fault x checkpoint interval (recovery on, repeat-verified)\n"
    );
    println!(
        "{}",
        render_table(
            &[
                "circuit", "scenario", "ckpt", "at", "ckt ht", "time s", "vs clean", "mb vs",
                "ckpts", "dead", "reassign", "rollbk", "failover", "dup", "status",
            ],
            &data
        )
    );
    if let Some(path) = report_out {
        write_or_die(&path, &chaos_report_json(&study, cfg.quick));
        println!("chaos: wrote {path}");
    }
    if !study.all_ok() {
        eprintln!("chaos: FAILED — a scenario degraded, lost a wire, or did not reproduce");
        std::process::exit(1);
    }
    println!(
        "chaos: all {} scenarios terminated with every wire routed, bitwise-repeatable",
        study.rows.len()
    );
}

/// [`run_chaos`] adapter for the `all` sequence (no report file).
fn run_chaos_known(cfg: &RunCfg) {
    run_chaos(cfg, None);
}

/// `memory`: the memory-system backend study — every registered backend
/// replays the same per-circuit shared-memory trace over the same mesh
/// machine. `--memory <backend>` restricts the table to one backend;
/// `report_out = Some(path)` writes `BENCH_memory.json`.
fn run_memory(cfg: &RunCfg, report_out: Option<String>) {
    use locus_coherence::{build_memory_model, MemoryConfig};
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let a = cfg.circuit();
    let b = cfg.circuit2();
    // An unknown `--memory` name is reported before the study runs.
    if let Some(backend) = &cfg.memory_backend {
        let machine = MemoryConfig::paper(cfg.procs() as u32, MEMORY_STUDY_LINE_SIZE);
        if let Err(msg) = build_memory_model(backend, machine) {
            die(msg);
        }
    }
    let mut rows = memory_study(&cfg.harness, &[&a, &b], cfg.procs(), MEMORY_STUDY_LINE_SIZE)
        .unwrap_or_else(|msg| die(msg));
    if let Some(backend) = &cfg.memory_backend {
        rows.retain(|r| r.backend == backend.as_str());
    }
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.circuit.clone(),
                r.backend.to_string(),
                format!("{:.2}", r.mbytes),
                format!("{:.0}%", r.write_fraction * 100.0),
                format!("{}", r.coherence_events),
                format!("{:.2}", r.inval_mbytes),
                format!("{:.3}", r.fifo_wait_ns as f64 / 1.0e6),
                format!("{:.0}", r.fifo_critical_mean_ns),
                format!("{:.0}", r.prio_critical_mean_ns),
                format!("{:.3}", r.critical_wait_saved_ns as f64 / 1.0e6),
            ]
        })
        .collect();
    println!(
        "Memory-system backends: identical traces, {}-byte lines ({} procs)\n",
        MEMORY_STUDY_LINE_SIZE,
        cfg.procs()
    );
    println!(
        "{}",
        render_table(
            &[
                "Ckt.",
                "backend",
                "MBytes",
                "wr-caused",
                "coh. events",
                "inval MB",
                "FIFO wait (ms)",
                "crit ns (FIFO)",
                "crit ns (prio)",
                "saved (ms)",
            ],
            &data
        )
    );
    if let Some(path) = report_out {
        write_or_die(&path, &memory_report_json(&rows, cfg.procs(), MEMORY_STUDY_LINE_SIZE));
        println!("memory: wrote {path}");
    }
}

/// [`run_memory`] adapter for the `all` sequence (no report file).
fn run_memory_known(cfg: &RunCfg) {
    run_memory(cfg, None);
}

fn run_compare(cfg: &RunCfg) {
    let c = cfg.circuit();
    let rows = compare_paradigms(&cfg.harness, &c, cfg.procs());
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.approach.clone(), format!("{}", r.ckt_ht), f3(r.mbytes)])
        .collect();
    println!("§5.2: shared memory vs message passing ({})\n", cfg.setting());
    println!("{}", render_table(&["approach", "Ckt. Ht.", "MBytes Xfrd."], &data));
}

/// `list`: every experiment id the CLI accepts plus every engine the
/// registry can build.
fn run_list() {
    println!("experiments:");
    for (name, _) in KNOWN {
        println!("  {name}");
    }
    for extra in ["figure1", "figure2", "figure3", "list", "sweeps", "all"] {
        println!("  {extra}");
    }
    println!("\nengines (--engine <name>):");
    for e in registry() {
        println!("  {:<17} {}", e.name, e.summary);
    }
    println!("\nmemory backends (--memory <name>):");
    for e in locus_coherence::memory_registry() {
        println!("  {:<17} {}", e.name, e.summary);
    }
}

/// Resolves a `--circuit` name to its preset.
fn circuit_by_name(name: &str) -> locus_circuit::Circuit {
    match name {
        "tiny" => presets::tiny(),
        "small" => presets::small(),
        "bnre" | "bnrE" => presets::bnr_e(),
        "mdc" => presets::mdc(),
        "powerlaw" => presets::power_law(),
        other => {
            eprintln!("unknown circuit {other:?}; expected tiny, small, bnre, mdc or powerlaw");
            std::process::exit(2);
        }
    }
}

/// `--engine <name>`: one run of a single registry engine.
fn run_engine(cfg: &RunCfg, name: &str, procs: Option<usize>, circuit: Option<String>) {
    let engine = match build_engine(name) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let c = match circuit {
        Some(name) => circuit_by_name(&name),
        None => cfg.circuit(),
    };
    let procs = procs.unwrap_or_else(|| cfg.procs());
    let ctx = EngineCtx::new(procs).with_traffic();
    let run = engine.route(&c, &RouterParams::default(), &ctx);
    let data = vec![vec![
        engine.id().to_string(),
        format!("{}", run.outcome.quality.circuit_height),
        format!("{}", run.outcome.quality.occupancy_factor),
        run.mbytes.map_or("-".into(), f3),
        run.time_secs.map_or("-".into(), f3),
    ]];
    println!("engine run ({}, {} procs)\n", c.name, procs);
    println!(
        "{}",
        render_table(&["engine", "Ckt. Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)"], &data)
    );
}

/// `analyze`: race detection + classification over one engine's
/// reference trace, or replica-staleness auditing for the
/// message-passing engines. `--report FILE` writes machine-readable
/// JSON alongside the printed summary.
fn run_analyze(cfg: &RunCfg, name: &str, procs: Option<usize>, report_out: Option<String>) {
    use locus_analysis as analysis;
    use locus_obs::{names, RingBufferSink};

    let c = cfg.circuit();
    let procs = procs.unwrap_or_else(|| cfg.procs());
    let params = RouterParams::default();

    if name.starts_with("msgpass") {
        let audit_every = if cfg.quick { 2 } else { 8 };
        let (report, outcome) =
            match analysis::audit_staleness(&c, name, procs, params, audit_every) {
                Ok(r) => r,
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(2);
                }
            };
        print!("{}", report.render());
        println!(
            "  quality: height {}, occupancy {}",
            outcome.quality.circuit_height, outcome.quality.occupancy_factor
        );
        if let Some(path) = report_out {
            write_or_die(&path, &analysis::staleness_report_json(&report, name, procs));
            eprintln!("analyze: wrote staleness report to {path}");
        }
        return;
    }

    let report = match analysis::analyze_engine(&c, name, procs, params) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    print!("{}", report.render());
    let mut sink = RingBufferSink::new();
    analysis::emit_race_events(&report, &mut sink);
    println!(
        "  obs: {}={} {}={} {}={}",
        names::RACES_DETECTED,
        sink.metrics().counter(names::RACES_DETECTED),
        names::BENIGN_RACES,
        sink.metrics().counter(names::BENIGN_RACES),
        names::QUALITY_RACES,
        sink.metrics().counter(names::QUALITY_RACES),
    );
    if let Some(path) = report_out {
        write_or_die(&path, &analysis::race_report_json(&report));
        eprintln!("analyze: wrote race report to {path}");
    }
}

/// `sweeps`: runs the Table 1 sweep serially and on the parallel
/// harness, verifies the rows are identical, and records the wall-clock
/// comparison in a JSON artifact.
fn run_sweeps(cfg: &RunCfg, out_path: &str) {
    let c = cfg.circuit();
    let procs = cfg.procs();
    let threads = cfg.harness.threads().max(2);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("sweeps: table1 serial ({}, {procs} procs)...", c.name);
    let t0 = Instant::now();
    let serial_rows = table1(&Harness::serial(), &c, procs);
    let serial_s = t0.elapsed().as_secs_f64();

    eprintln!("sweeps: table1 parallel ({threads} threads)...");
    let t1 = Instant::now();
    let parallel_rows = table1(&Harness::with_threads(threads), &c, procs);
    let parallel_s = t1.elapsed().as_secs_f64();

    let rows_equal = serial_rows == parallel_rows;
    let speedup = serial_s / parallel_s;
    let json = format!(
        "{{\n  \"benchmark\": \"sweeps\",\n  \"description\": \"Wall-clock time of the full Table 1 sweep (12 message-passing runs) executed serially vs on the scoped-thread sweep harness. Engines are deterministic, so rows_equal must be true at any thread count; the achievable speedup is bounded by host_cpus. Run with: cargo run --release -p locus-bench --bin locus-experiments sweeps.\",\n  \"experiment\": \"table1\",\n  \"circuit\": \"{}\",\n  \"n_procs\": {},\n  \"host_cpus\": {},\n  \"threads\": {},\n  \"serial_s\": {:.3},\n  \"parallel_s\": {:.3},\n  \"speedup\": {:.2},\n  \"rows_equal\": {},\n  \"notes\": \"The shmem threads engine now defaults to per-shard cost-array ownership (each worker routes against a private replica with its own prefix caches; cross-shard writes become visible at iteration barriers). This sweep exercises the message-passing engine, whose per-node replicas already had that property, so its rows are unaffected; shard ownership changes no deterministic result in any engine at P=1.\"\n}}\n",
        c.name, procs, host_cpus, threads, serial_s, parallel_s, speedup, rows_equal
    );
    write_or_die(out_path, &json);
    println!(
        "sweeps: serial {serial_s:.3}s, parallel {parallel_s:.3}s on {threads} threads \
         ({host_cpus} host cpus) -> speedup {speedup:.2}x, rows_equal = {rows_equal}"
    );
    println!("sweeps: wrote {out_path}");
    if !rows_equal {
        eprintln!("sweeps: FAILED — parallel rows diverge from serial rows");
        std::process::exit(1);
    }
}

/// Routes a circuit with both two-bend evaluators over an evolving cost
/// surface and counts divergences in `(route, cost, candidates,
/// cells_examined)`.
///
/// Every connection is evaluated three ways — the historical cell-list
/// reference, the span kernel through the `CostArray` prefix-sum fast
/// path, and the span kernel through the per-cell default span
/// implementations — on the live surface *before* the winner is
/// committed, so the comparison covers realistic congested states, not
/// just the empty array.
fn quality_check_circuit(c: &locus_circuit::Circuit) -> u64 {
    use locus_router::segment::decompose;
    use locus_router::twobend::{best_route, best_route_reference};
    use locus_router::{CostArray, CostView};

    /// Forces the per-cell default span implementations.
    struct PerCell<'a>(&'a CostArray);
    impl CostView for PerCell<'_> {
        fn channels(&self) -> u16 {
            CostView::channels(self.0)
        }
        fn grids(&self) -> u16 {
            CostView::grids(self.0)
        }
        fn cost_at(&self, cell: locus_circuit::GridCell) -> u32 {
            self.0.cost_at(cell)
        }
    }

    const OVERSHOOT: u16 = 1;
    let mut costs = CostArray::new(c.channels, c.grids);
    let mut checked = 0u64;
    let mut divergences = 0u64;
    for wire in &c.wires {
        for conn in decompose(wire) {
            let reference = best_route_reference(&costs, conn, OVERSHOOT);
            let fast = best_route(&costs, conn, OVERSHOOT);
            let slow = best_route(&PerCell(&costs), conn, OVERSHOOT);
            for (path, eval) in [("fast", &fast), ("percell", &slow)] {
                if eval.route != reference.route
                    || eval.cost != reference.cost
                    || eval.candidates != reference.candidates
                    || eval.cells_examined != reference.cells_examined
                {
                    divergences += 1;
                    eprintln!(
                        "quality-check: {} wire {} conn {:?}->{:?} [{path}]: \
                         cost {} vs {}, candidates {} vs {}, cells {} vs {}",
                        c.name,
                        wire.id,
                        conn.from,
                        conn.to,
                        eval.cost,
                        reference.cost,
                        eval.candidates,
                        reference.candidates,
                        eval.cells_examined,
                        reference.cells_examined,
                    );
                }
            }
            costs.add_route(&fast.route);
            checked += 1;
        }
    }
    println!("quality-check: {} — {} connections, {} divergences", c.name, checked, divergences);
    divergences
}

/// `--quality-check`: route bnrE and MDC with both evaluators and fail
/// on any divergence.
fn run_quality_check() -> ! {
    let divergences =
        quality_check_circuit(&presets::bnr_e()) + quality_check_circuit(&presets::mdc());
    if divergences > 0 {
        eprintln!("quality-check: FAILED ({divergences} divergences)");
        std::process::exit(1);
    }
    println!("quality-check: OK (optimized kernel matches reference evaluator exactly)");
    std::process::exit(0);
}

/// Removes `--flag <value>` from `args` and returns the value, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Removes a boolean `--flag` from `args`, returning whether it was set.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Runs one instrumented paper-settings run and writes the requested
/// trace / metrics exports.
fn write_observability(trace_out: Option<String>, metrics_out: Option<String>) {
    use locus_obs::export;
    let c = presets::bnr_e();
    eprintln!("observability: instrumented msgpass run (bnrE, {PAPER_PROCS} procs)...");
    let run = observed_paper_run(&c, PAPER_PROCS);
    if let Some(path) = trace_out {
        let json = export::chrome_trace(&run.events);
        export::validate_json(&json).expect("chrome trace must be valid JSON");
        write_or_die(&path, &json);
        eprintln!("observability: wrote {} events to {path} (chrome://tracing)", run.events.len());
    }
    if let Some(path) = metrics_out {
        let json = export::metrics_json(&run.metrics);
        export::validate_json(&json).expect("metrics must be valid JSON");
        write_or_die(&path, &json);
        eprintln!("observability: wrote metrics to {path}");
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Experiment id → runner, in presentation order (shared by `all` and
/// `list`).
const KNOWN: &[(&str, fn(&RunCfg))] = &[
    ("table1", run_table1),
    ("table2", run_table2),
    ("blocking", run_blocking),
    ("mixed", run_mixed),
    ("table3", run_table3),
    ("table4", run_table4),
    ("table5", run_table5),
    ("table6", run_table6),
    ("locality", run_locality),
    ("speedup", run_speedup),
    ("compare", run_compare),
    ("structures", run_structures),
    ("distribution", run_distribution),
    ("overshoot", run_overshoot),
    ("contention", run_contention),
    ("faults", run_faults_known),
    ("serve", run_serve_known),
    ("chaos", run_chaos_known),
    ("memory", run_memory_known),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--quality-check") {
        args.remove(i);
        run_quality_check();
    }
    let trace_out = take_flag(&mut args, "--trace-out");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let engine_name = take_flag(&mut args, "--engine");
    let circuit_name = take_flag(&mut args, "--circuit");
    let engine_procs = take_flag(&mut args, "--procs").map(|p| {
        p.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--procs expects a number, got {p:?}");
            std::process::exit(2);
        })
    });
    let threads = take_flag(&mut args, "--threads").map(|t| {
        t.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--threads expects a number, got {t:?}");
            std::process::exit(2);
        })
    });
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| "BENCH_sweeps.json".to_string());
    let report_out = take_flag(&mut args, "--report");
    let memory_backend =
        take_flag(&mut args, "--memory").or_else(|| take_flag(&mut args, "--protocol"));
    let quick = take_switch(&mut args, "--quick");
    if let Some(bad) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!(
            "unknown flag {bad}; expected --quick, --threads N, --engine NAME, --circuit NAME, \
             --procs N, --out FILE, --report FILE, --memory BACKEND, --trace-out FILE or \
             --metrics-out FILE"
        );
        std::process::exit(2);
    }
    let harness = match threads {
        Some(n) => Harness::with_threads(n),
        None => Harness::auto(),
    };
    let cfg = RunCfg { harness, quick, memory_backend };

    if circuit_name.is_some()
        && (engine_name.is_none() || args.first().map(String::as_str) == Some("analyze"))
    {
        eprintln!("--circuit only applies to --engine runs");
        std::process::exit(2);
    }

    if args.first().map(String::as_str) == Some("analyze") {
        let name = engine_name.as_deref().unwrap_or("shmem-threads");
        run_analyze(&cfg, name, engine_procs, report_out);
        return;
    }

    if let Some(name) = engine_name {
        run_engine(&cfg, &name, engine_procs, circuit_name);
        return;
    }

    let arg = args.first().cloned().unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "list" => run_list(),
        "faults" => run_faults(&cfg, report_out),
        "serve" => {
            let path = report_out.unwrap_or_else(|| "BENCH_service.json".to_string());
            run_serve(&cfg, Some(path));
        }
        "chaos" => {
            let path = report_out.unwrap_or_else(|| "BENCH_resilience.json".to_string());
            run_chaos(&cfg, Some(path));
        }
        "memory" => {
            let path = report_out.unwrap_or_else(|| "BENCH_memory.json".to_string());
            run_memory(&cfg, Some(path));
        }
        "sweeps" => run_sweeps(&cfg, &out_path),
        "figure1" => print!("{}", figure1()),
        "figure2" => print!("{}", figure2(4)),
        "figure3" => print!("{}", figure3()),
        "all" => {
            for (name, f) in KNOWN {
                println!("==== {name} ====");
                f(&cfg);
            }
            print!("{}", figure1());
            print!("{}", figure2(4));
            print!("{}", figure3());
        }
        other => match KNOWN.iter().find(|(n, _)| *n == other) {
            Some((_, f)) => f(&cfg),
            None => {
                eprintln!(
                    "unknown experiment {other:?}; expected one of table1..table6, blocking, \
                     mixed, locality, speedup, compare, structures, overshoot, contention, \
                     faults, serve, chaos, memory, figure1..figure3, list, sweeps, analyze, all"
                );
                std::process::exit(2);
            }
        },
    }
    if trace_out.is_some() || metrics_out.is_some() {
        write_observability(trace_out, metrics_out);
    }
}
