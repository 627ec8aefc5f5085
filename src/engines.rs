//! The routing engines, one table of plain functions keyed by name.
//!
//! Every executor in the workspace — the sequential reference, the
//! deterministic shared-memory emulator, the real threaded router, and
//! the message-passing simulator under both headline update schedules —
//! is one row: a name, a summary, and a function that calls the
//! executor and reduces its outcome to an [`EngineRun`]. Harnesses
//! (`locus-experiments --engine <name>`, `compare_paradigms`) select one
//! at runtime through [`run`].

use locus_circuit::Circuit;
use locus_coherence::traffic_by_line_size;
use locus_msgpass::{run_msgpass, MsgPassConfig, UpdateSchedule};
use locus_router::{EngineRun, RegionMap, RouteOutcome, RouterParams, SequentialRouter};
use locus_shmem::{ShmemConfig, ShmemEmulator, ThreadedRouter};

/// Cache line size (bytes) at which the paper's §5.2 bus-traffic
/// comparison is made.
const COMPARE_LINE_BYTES: u32 = 8;

/// One table row: a stable engine name, a one-line summary, and the
/// function that runs the engine.
pub struct EngineEntry {
    /// Stable engine name accepted by `--engine`.
    pub name: &'static str,
    /// One-line human description for `locus-experiments list`.
    pub summary: &'static str,
    /// Routes a circuit on `procs` processors (the sequential engine
    /// ignores the count), also measuring the paradigm's traffic when
    /// `traffic` is set, or says why the engine has no room for that
    /// configuration.
    pub run: fn(&Circuit, &RouterParams, usize, bool) -> Result<EngineRun, String>,
}

/// Every registered engine, in presentation order.
pub fn registry() -> &'static [EngineEntry] {
    &[
        EngineEntry {
            name: "sequential",
            summary: "uniprocessor reference router (pseudo-time in cells examined)",
            run: |c, params, _, _| sequential(c, params),
        },
        EngineEntry {
            name: "shmem-emul",
            summary: "deterministic Tango-style shared-memory emulator (all table values)",
            run: shmem_emul,
        },
        EngineEntry {
            name: "shmem-threads",
            summary: "real OS-thread shared-memory router (nondeterministic, wall clock)",
            run: |c, params, procs, _| shmem_threads(c, params, procs),
        },
        EngineEntry {
            name: "msgpass-sender",
            summary: "message-passing mesh, sender-initiated updates (2,10)",
            run: |c, params, procs, _| msgpass(c, params, procs, UpdateSchedule::sender_paper()),
        },
        EngineEntry {
            name: "msgpass-receiver",
            summary: "message-passing mesh, receiver-initiated updates (1,5)",
            run: |c, params, procs, _| msgpass(c, params, procs, UpdateSchedule::receiver_paper()),
        },
    ]
}

/// The entry registered under `name`, or the list of valid names as the
/// error.
pub fn find(name: &str) -> Result<&'static EngineEntry, String> {
    registry().iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        format!("unknown engine '{name}' (expected one of: {})", names.join(", "))
    })
}

/// Runs the engine registered under `name`; see [`EngineEntry::run`].
pub fn run(
    name: &str,
    circuit: &Circuit,
    params: &RouterParams,
    procs: usize,
    traffic: bool,
) -> Result<EngineRun, String> {
    (find(name)?.run)(circuit, params, procs, traffic)
}

/// The reference router: no clock, no traffic.
fn sequential(circuit: &Circuit, params: &RouterParams) -> Result<EngineRun, String> {
    params.validate()?;
    let outcome = SequentialRouter::new(circuit, *params).run();
    Ok(EngineRun { outcome, mbytes: None, time_secs: None })
}

/// The emulator. Traffic is Write-Back-with-Invalidate bus megabytes at
/// 8-byte lines, from a run with Tango trace collection.
fn shmem_emul(
    circuit: &Circuit,
    params: &RouterParams,
    procs: usize,
    traffic: bool,
) -> Result<EngineRun, String> {
    let mut config = ShmemConfig::new(procs).with_params(*params);
    if traffic {
        config = config.with_trace();
    }
    let out = ShmemEmulator::try_new(circuit, config)?.run();
    let mbytes = out
        .trace
        .as_ref()
        .map(|t| traffic_by_line_size(t, &[COMPARE_LINE_BYTES]).remove(0).1.mbytes());
    Ok(EngineRun {
        outcome: RouteOutcome {
            quality: out.quality,
            work: out.work,
            routes: out.routes,
            cost: out.cost,
            occupancy_by_iteration: out.occupancy_by_iteration,
        },
        mbytes,
        time_secs: Some(out.time_secs),
    })
}

/// The threaded router: wall-clock seconds, never traffic.
fn shmem_threads(
    circuit: &Circuit,
    params: &RouterParams,
    procs: usize,
) -> Result<EngineRun, String> {
    let config = ShmemConfig::new(procs).with_params(*params);
    let out = ThreadedRouter::try_new(circuit, config)?.run();
    Ok(EngineRun {
        outcome: RouteOutcome {
            quality: out.quality,
            work: out.work,
            routes: out.routes,
            cost: out.cost,
            occupancy_by_iteration: out.occupancy_by_iteration,
        },
        mbytes: None,
        time_secs: Some(out.wall.as_secs_f64()),
    })
}

/// The message-passing simulator under `schedule`. Payload megabytes
/// are always measured.
fn msgpass(
    circuit: &Circuit,
    params: &RouterParams,
    procs: usize,
    schedule: UpdateSchedule,
) -> Result<EngineRun, String> {
    let config = MsgPassConfig::new(procs, schedule).with_params(*params);
    config.validate()?;
    RegionMap::try_new(circuit.channels, circuit.grids, procs)?;
    let out = run_msgpass(circuit, config);
    Ok(EngineRun {
        outcome: RouteOutcome {
            quality: out.quality,
            work: out.work,
            routes: out.routes,
            cost: out.cost,
            occupancy_by_iteration: out.occupancy_by_iteration,
        },
        mbytes: Some(out.mbytes),
        time_secs: Some(out.time_secs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    #[test]
    fn run_rejects_unknown_names() {
        let err = run("nonesuch", &presets::tiny(), &RouterParams::default(), 1, false)
            .expect_err("unknown name must fail");
        assert!(err.contains("nonesuch") && err.contains("sequential"), "{err}");
    }

    /// Every entry on `tiny` over hostile processor and iteration counts,
    /// traffic off and on: `Ok` with every wire routed, or an `Err` —
    /// never a panic or a hang.
    #[test]
    fn every_engine_routes_the_tiny_circuit() {
        let c = presets::tiny();
        let procs = [0, 1, 2, 3, 64, 65, 256, 18_446_744_073_709_551_557, usize::MAX];
        for entry in registry() {
            for &p in &procs {
                for iterations in [0, 1, 3] {
                    for traffic in [false, true] {
                        let params = RouterParams { iterations, ..RouterParams::default() };
                        let case = format!("{} P={p} iterations={iterations}", entry.name);
                        match (entry.run)(&c, &params, p, traffic) {
                            Ok(got) => {
                                assert_eq!(got.outcome.routes.len(), c.wire_count(), "{case}")
                            }
                            Err(why) => assert!(!why.is_empty(), "{case}"),
                        }
                    }
                }
            }
        }
    }
}
