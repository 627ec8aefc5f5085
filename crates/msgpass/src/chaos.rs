//! The recovery study, defined once: the `chaos` experiment, the
//! wire-order explorer and the fault-free heartbeat sweep run under it.
//!
//! A clean probe of [`base`] measures the completion time `T` and each
//! processor's routing span. The heartbeat is max(`T`/50, 1 ms), and a
//! peer is suspected after [`SUSPECT_AFTER`] silent beats (≈ 0.16 `T`).
//! A fault hits its victim at a fraction of the victim's *own* routing
//! span, while it still holds unfinished wires (static shares are
//! imbalanced, and onsets scaled by `T` would land in the update and
//! termination tail and orphan nothing). Durations scale with `T`, as
//! the suspect window does: a restart is down for `T`/20, inside the
//! window, and a stall multiplies service cost by 4 for `T`/4.

use locus_mesh::{FaultPlan, NodeFault};

use crate::{MsgPassConfig, MsgPassOutcome, RecoveryConfig, UpdateSchedule};

/// Heartbeats of silence before a peer is declared dead.
pub const SUSPECT_AFTER: u32 = 8;

/// The study's base at `procs` processors, which its clean probe runs:
/// sender-initiated (2,10) with one iteration, so that checkpoint
/// progress is monotone, as recovery requires.
pub fn base(procs: usize) -> MsgPassConfig {
    let config = MsgPassConfig::new(procs, UpdateSchedule::sender_paper());
    config.with_params(config.params.with_iterations(1))
}

/// [`base`] with reliability and recovery on: a heartbeat every
/// `heartbeat_ns`, a peer suspected after [`SUSPECT_AFTER`] silent beats,
/// and a checkpoint every `checkpoint_every` wires.
pub fn recovering(procs: usize, heartbeat_ns: u64, checkpoint_every: u32) -> MsgPassConfig {
    let recovery = RecoveryConfig {
        checkpoint_every,
        heartbeat_ns,
        suspect_after: SUSPECT_AFTER,
        ..RecoveryConfig::default()
    };
    base(procs).with_reliability().with_recovery_config(recovery)
}

/// The heartbeat period derived from a clean `probe`: max(`T`/50, 1 ms).
pub fn heartbeat_ns(probe: &MsgPassOutcome) -> u64 {
    ((probe.time_secs * 1e9) as u64 / 50).max(1_000_000)
}

/// How a fault hits its victim: a fail-stop crash, a crash and then a
/// restart from the last checkpoint, or a stall (alive but slow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    Crash,
    Restart,
    Stall,
}

/// A fault of `kind` on node `victim` at `frac` of that node's routing
/// span in the clean `probe`.
///
/// # Panics
/// Panics if `victim` is not one of the probe's processors.
pub fn fault(probe: &MsgPassOutcome, victim: u32, kind: FaultKind, frac: f64) -> FaultPlan {
    let t_ns = (probe.time_secs * 1e9) as u64;
    let span_ns = (probe.routing_done_secs_by_proc[victim as usize] * 1e9) as u64;
    let at_ns = (span_ns as f64 * frac).max(1.0) as u64;
    let fault = match kind {
        FaultKind::Crash => NodeFault::Crash { at_ns },
        FaultKind::Restart => NodeFault::CrashRestart { at_ns, downtime_ns: t_ns / 20 },
        FaultKind::Stall => NodeFault::Stall { at_ns, factor: 4, duration_ns: t_ns / 4 },
    };
    FaultPlan::none().with_node_fault(victim, fault)
}

/// The `(name, onset fraction, plan)` scenarios of the clean `probe`'s
/// circuit: `clean`; `worker-crash` of the longest-routing worker (the
/// lowest rank of a tie) at each of `fracs`; then, at half the victim's
/// span, `worker-restart`, `coordinator-crash` of node 0, and `stall`.
///
/// # Errors
/// When the probe ran on fewer than 2 processors: there is no worker.
pub fn scenarios(
    probe: &MsgPassOutcome,
    fracs: &[f64],
) -> Result<Vec<(&'static str, f64, FaultPlan)>, String> {
    let spans = &probe.routing_done_secs_by_proc;
    let (worker, _) = spans
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(p, &secs)| ((secs * 1e9) as u64, std::cmp::Reverse(p)))
        .ok_or_else(|| {
            format!("no worker to hit: the probe ran on {} processor(s)", spans.len())
        })?;
    let worker = worker as u32;
    let on = |victim, kind, frac| fault(probe, victim, kind, frac);
    let mut v = vec![("clean", 0.0, FaultPlan::none())];
    v.extend(fracs.iter().map(|&f| ("worker-crash", f, on(worker, FaultKind::Crash, f))));
    v.extend([
        ("worker-restart", 0.5, on(worker, FaultKind::Restart, 0.5)),
        ("coordinator-crash", 0.5, on(0, FaultKind::Crash, 0.5)),
        ("stall", 0.5, on(worker, FaultKind::Stall, 0.5)),
    ]);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_msgpass;
    use locus_circuit::presets;

    #[test]
    fn a_probe_on_one_processor_has_no_worker_to_hit() {
        let probe = run_msgpass(&presets::tiny(), base(1));
        let err = scenarios(&probe, &[0.5]).unwrap_err();
        assert!(err.contains("on 1 processor"), "{err}");
    }
}
