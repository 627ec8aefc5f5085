//! `locus-experiments` — regenerates every table and figure of
//! Martonosi & Gupta (ICPP 1989) at the paper's full settings.
//!
//! Usage:
//!
//! ```text
//! locus-experiments [<experiment>|all] [--quick] [--threads N]
//!                   [--report <file>] [--memory <backend>]
//!                   [--trace-out <file>] [--metrics-out <file>]
//! locus-experiments --engine <name> [--circuit <name>] [--procs N] [--quick]
//! locus-experiments analyze [--engine <name>] [--procs N] [--quick]
//!                           [--report <file>]
//! ```
//!
//! `list` prints every experiment id (the [`EXPERIMENTS`] table below)
//! plus every registered routing engine and memory backend; no id means
//! `all`. Every experiment is a `Report` (`locus_bench::report`): its
//! table goes to stdout and `--report <file>` writes the same cells as
//! JSON. `chaos` and `memory` write `BENCH_resilience.json` and
//! `BENCH_memory.json` in the current directory when `--report` does not
//! say otherwise; they hold simulated quantities only and regenerate byte
//! for byte.
//!
//! Independent sweep points run concurrently on a small scoped-thread
//! pool sized by `--threads` (default: the host's available
//! parallelism). Engines are deterministic, so the output is identical
//! at any thread count (`tests/golden.rs` and `tests/parallel_harness.rs`
//! hold it to that).
//!
//! `--memory <backend>` restricts `memory` to one
//! backend, and on `table3` reruns the line-size sweep through that
//! backend — `table3 --memory bus-wt` is the write-through ablation.
//! `--quick` shrinks any experiment to a CI-sized configuration (small
//! synthetic circuit, 4 processors). `chaos` exits 1 unless every
//! scenario terminates with all wires routed and reproduces bitwise.
//! A flag the chosen command never reads, or a second experiment id, is
//! a usage error (exit 2).
//!
//! `--engine <name>` routes one circuit through a single registry engine
//! and prints its headline metrics (`--circuit
//! <tiny|small|bnre|mdc|powerlaw>` picks the preset).
//!
//! `analyze` runs one engine (default `shmem-emul`) and replays the
//! emulator's reference trace through the race detector (two accesses
//! race iff they share a barrier epoch) and classifies every
//! unsynchronized conflicting pair as benign or quality-affecting (for the
//! message-passing engines it instead folds the run's replica audits
//! against the ground-truth cost array). `shmem-threads` records no trace
//! and is a usage error. Its report is printed and written like any other.
//!
//! `--trace-out` writes a Chrome trace-event JSON (load it at
//! `chrome://tracing`) and `--metrics-out` a flat metrics JSON, both
//! captured from one instrumented paper-settings message-passing run
//! (bnrE, 16 processors, sender-initiated updates) after an experiment;
//! like `--threads`, they do not apply to `--engine` or `analyze`.
//!
//! Run with `--release`.

#![forbid(unsafe_code)]

use locus_bench::catalog::{self, Experiment, RunCfg};
use locus_bench::report::Report;
use locus_bench::{Harness, PAPER_PROCS};
use locus_circuit::presets;

/// How the `all` sequence shows an entry of [`EXPERIMENTS`].
#[derive(PartialEq)]
enum InAll {
    /// Under a `==== id ====` banner.
    Banner,
    /// As is: the figures caption themselves.
    Bare,
    /// Not at all: not a result of the paper.
    Skip,
}
use InAll::{Banner, Bare, Skip};

/// Every experiment id, in presentation order: what it runs, where its
/// report goes when `--report` does not say, and its place in `all`.
/// `list`, `all`, the unknown-experiment message and `--report` handling
/// all read this table.
const EXPERIMENTS: &[(&str, Experiment, Option<&str>, InAll)] = &[
    ("table1", catalog::table1, None, Banner),
    ("table2", catalog::table2, None, Banner),
    ("blocking", catalog::blocking, None, Banner),
    ("mixed", catalog::mixed, None, Banner),
    ("table3", catalog::table3, None, Banner),
    ("table4", catalog::table4, None, Banner),
    ("table5", catalog::table5, None, Banner),
    ("table6", catalog::table6, None, Banner),
    ("locality", catalog::locality, None, Banner),
    ("speedup", catalog::speedup, None, Banner),
    ("compare", catalog::compare, None, Banner),
    ("structures", catalog::structures, None, Banner),
    ("distribution", catalog::distribution, None, Banner),
    ("overshoot", catalog::overshoot, None, Banner),
    ("contention", catalog::contention, None, Banner),
    ("faults", catalog::faults, None, Banner),
    ("chaos", catalog::chaos, Some("BENCH_resilience.json"), Banner),
    ("memory", catalog::memory, Some("BENCH_memory.json"), Banner),
    ("figure1", catalog::figure1, None, Bare),
    ("figure2", catalog::figure2, None, Bare),
    ("figure3", catalog::figure3, None, Bare),
    ("list", list, None, Skip),
];

/// `list`: every experiment id the CLI accepts plus every engine and
/// memory backend the registries can build.
fn list(_: &RunCfg) -> Result<Report, String> {
    let mut out = String::from("experiments:\n");
    for id in EXPERIMENTS.iter().map(|e| e.0).chain(["all"]) {
        out += &format!("  {id}\n");
    }
    Ok(Report::new(out + &catalog::registries()))
}

/// Prints `msg` and exits with `code` (2: bad invocation, 1: failed run).
fn die(msg: &str, code: i32) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

/// Prints a report; when `out` names a file, writes the JSON there too.
/// Exits 1 after both if the experiment's own check failed.
fn emit(id: &str, report: &Report, out: Option<&str>) {
    print!("{}", report.render_text());
    if let Some(path) = out {
        write_or_die(path, &report.to_json());
        println!("{id}: wrote {path}");
    }
    if let Some(msg) = &report.failure {
        die(msg, 1);
    }
    print!("{}", report.closing);
}

/// Removes `--flag <value>` from `args` and returns the value, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        die(&format!("{flag} requires an argument"), 2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Removes `--flag <number>` from `args` and returns the number, if present.
fn take_number(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    take_flag(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| die(&format!("{flag} expects a number, got {v:?}"), 2))
    })
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

/// Runs the paper-settings message-passing router (bnrE, 16 processors,
/// the paper's sender-initiated schedule) with a recording sink and
/// writes the requested trace / metrics exports.
fn write_observability(trace_out: Option<String>, metrics_out: Option<String>) {
    use locus_msgpass::{run_msgpass_observed, MsgPassConfig, UpdateSchedule};
    use locus_obs::{export, SharedSink};
    eprintln!("observability: instrumented msgpass run (bnrE, {PAPER_PROCS} procs)...");
    let sink = SharedSink::new();
    let cfg = MsgPassConfig::new(PAPER_PROCS, UpdateSchedule::sender_paper());
    let outcome = run_msgpass_observed(&presets::bnr_e(), cfg, sink.clone());
    assert!(!outcome.deadlocked, "observed run deadlocked");
    if let Some(path) = trace_out {
        let events = sink.snapshot_events();
        let json = export::chrome_trace(&events);
        export::validate_json(&json).expect("chrome trace must be valid JSON");
        write_or_die(&path, &json);
        eprintln!("observability: wrote {} events to {path} (chrome://tracing)", events.len());
    }
    if let Some(path) = metrics_out {
        let json = export::metrics_json(&sink.metrics_snapshot());
        export::validate_json(&json).expect("metrics must be valid JSON");
        write_or_die(&path, &json);
        eprintln!("observability: wrote metrics to {path}");
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        die(&format!("cannot write {path}: {e}"), 1);
    }
}

#[expect(clippy::disallowed_methods, reason = "the command line is this binary's input")]
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_flag(&mut args, "--trace-out");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let engine_name = take_flag(&mut args, "--engine");
    let circuit_name = take_flag(&mut args, "--circuit");
    let engine_procs = take_number(&mut args, "--procs");
    let threads = take_number(&mut args, "--threads");
    let report_out = take_flag(&mut args, "--report");
    let memory_backend = take_flag(&mut args, "--memory");
    let quick = take_switch(&mut args, "--quick");
    if let Some(bad) = args.iter().find(|a| a.starts_with("--")) {
        die(
            &format!(
                "unknown flag {bad}; expected --quick, --threads N, --engine NAME, --circuit \
                 NAME, --procs N, --report FILE, --memory BACKEND, --trace-out FILE \
                 or --metrics-out FILE"
            ),
            2,
        );
    }
    if args.len() > 1 {
        die(&format!("expected at most one experiment id, got {}", args.join(" ")), 2);
    }
    let harness = threads.map_or_else(Harness::auto, Harness::with_threads);
    let cfg = RunCfg { harness, quick, memory_backend };
    let id = args.first().map_or("all", String::as_str);

    // A flag the chosen command never reads is a mistake, not a no-op.
    let one_engine = engine_name.is_some() || id == "analyze";
    if circuit_name.is_some() && (engine_name.is_none() || id == "analyze") {
        die("--circuit only applies to --engine runs", 2);
    }
    if engine_procs.is_some() && !one_engine {
        die("--procs only applies to --engine runs and analyze", 2);
    }
    if cfg.memory_backend.is_some() && (one_engine || !["memory", "table3", "all"].contains(&id)) {
        die("--memory only applies to memory, table3 and all", 2);
    }
    let experiment_only = [
        ("--trace-out", trace_out.is_some()),
        ("--metrics-out", metrics_out.is_some()),
        ("--threads", threads.is_some()),
    ];
    if let Some((flag, _)) = experiment_only.iter().find(|(_, set)| *set && one_engine) {
        die(&format!("{flag} does not apply to --engine runs or analyze"), 2);
    }

    if id == "analyze" {
        let name = engine_name.as_deref().unwrap_or("shmem-emul");
        let report = catalog::analyze(&cfg, name, engine_procs).unwrap_or_else(|msg| die(&msg, 2));
        emit(id, &report, report_out.as_deref());
        return;
    }

    if let Some(name) = engine_name {
        let report = catalog::engine(&cfg, &name, engine_procs, circuit_name.as_deref())
            .unwrap_or_else(|msg| die(&msg, 2));
        emit("engine", &report, report_out.as_deref());
        return;
    }

    if id == "all" {
        for (id, run, _, in_all) in EXPERIMENTS.iter().filter(|e| e.3 != Skip) {
            if *in_all == Banner {
                println!("==== {id} ====");
            }
            emit(id, &run(&cfg).unwrap_or_else(|msg| die(&msg, 2)), None);
        }
    } else {
        let Some((_, run, artifact, _)) = EXPERIMENTS.iter().find(|e| e.0 == id) else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            die(
                &format!(
                    "unknown experiment {id:?}; expected one of {}, analyze, all",
                    ids.join(", ")
                ),
                2,
            );
        };
        let report = run(&cfg).unwrap_or_else(|msg| die(&msg, 2));
        emit(id, &report, report_out.as_deref().or(*artifact));
    }
    if trace_out.is_some() || metrics_out.is_some() {
        write_observability(trace_out, metrics_out);
    }
}
