//! End-to-end analysis entry points: produce a trace from a named
//! engine, run detection + classification, and aggregate the results
//! into the [`AnalysisReport`] the `analyze` experiment reports.

use std::collections::BTreeMap;

use locus_circuit::Circuit;
use locus_coherence::{MemRef, Trace};
use locus_msgpass::{MsgPassConfig, MsgPassOutcome, UpdateSchedule};
use locus_router::{RegionMap, RouterParams};
use locus_shmem::{addr_cell, ShmemConfig, ShmemEmulator, ThreadedRouter};

use crate::classify::{classify_races, ClassifiedRace};
use crate::race::detect;

/// A full race-analysis result for one engine run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Registry name of the engine the trace came from.
    pub engine: String,
    /// Circuit the run routed.
    pub circuit: String,
    /// Grid columns (needed to decode addresses back to cells).
    pub grids: u16,
    /// Processors in the run.
    pub procs: usize,
    /// References analysed.
    pub refs: usize,
    /// Barrier epochs in the trace.
    pub epochs: u32,
    /// Cross-processor conflicting pairs ordered by a barrier.
    pub synchronized_pairs: u64,
    /// Every deduplicated race pair with its verdict.
    pub races: Vec<ClassifiedRace>,
    /// Per-channel `(channel, races, benign)` counts, densest first.
    pub per_channel: Vec<(u16, usize, usize)>,
    /// Per-wire `(wire, races, benign)` counts, densest first.
    pub per_wire: Vec<(u32, usize, usize)>,
}

impl AnalysisReport {
    /// Detects and classifies races in `trace` (which must be
    /// time-sorted) and aggregates the per-channel / per-wire tables.
    /// `overshoot` is the run's candidate overshoot, reused when
    /// classification re-evaluates a racing wire.
    pub(crate) fn build(
        engine: &str,
        procs: usize,
        circuit: &Circuit,
        trace: &Trace,
        overshoot: u16,
    ) -> Self {
        let detection = detect(trace);
        let races = classify_races(circuit, trace, detection.races, overshoot);

        let mut by_channel: BTreeMap<u16, (usize, usize)> = BTreeMap::new();
        let mut by_wire: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for c in &races {
            let channel = addr_cell(c.pair.addr, circuit.grids).channel;
            let e = by_channel.entry(channel).or_default();
            e.0 += 1;
            e.1 += c.is_benign() as usize;
            let mut wires = [c.pair.first.wire, c.pair.second.wire];
            if wires[0] == wires[1] {
                wires[1] = MemRef::NO_WIRE;
            }
            for w in wires {
                if w != MemRef::NO_WIRE {
                    let e = by_wire.entry(w).or_default();
                    e.0 += 1;
                    e.1 += c.is_benign() as usize;
                }
            }
        }
        let mut per_channel: Vec<(u16, usize, usize)> =
            by_channel.into_iter().map(|(c, (t, b))| (c, t, b)).collect();
        per_channel.sort_by_key(|&(c, t, _)| (std::cmp::Reverse(t), c));
        let mut per_wire: Vec<(u32, usize, usize)> =
            by_wire.into_iter().map(|(w, (t, b))| (w, t, b)).collect();
        per_wire.sort_by_key(|&(w, t, _)| (std::cmp::Reverse(t), w));

        AnalysisReport {
            engine: engine.to_string(),
            circuit: circuit.name.clone(),
            grids: circuit.grids,
            procs,
            refs: detection.refs,
            epochs: detection.epochs,
            synchronized_pairs: detection.synchronized_pairs,
            races,
            per_channel,
            per_wire,
        }
    }

    /// Races classified benign.
    pub fn benign_count(&self) -> usize {
        self.races.iter().filter(|c| c.is_benign()).count()
    }

    /// Races classified quality-affecting.
    pub fn quality_count(&self) -> usize {
        self.races.len() - self.benign_count()
    }
}

/// Traces one run of a named engine and analyses it for races.
///
/// Accepted engines: `sequential` (always one processor), `shmem-emul`
/// and `shmem-threads`. The message-passing engines have no
/// shared-reference trace — audit them with [`audit_staleness`] instead.
pub fn analyze_engine(
    circuit: &Circuit,
    engine: &str,
    procs: usize,
    params: RouterParams,
) -> Result<AnalysisReport, String> {
    // The sequential router is the emulator at one processor (same wire
    // order, same routes: `tests/engine_equivalence.rs`), and only the
    // emulator records a trace.
    let procs = if engine == "sequential" { 1 } else { procs };
    let cfg = ShmemConfig::new(procs).with_params(params).with_trace();
    let trace = match engine {
        "sequential" | "shmem-emul" => ShmemEmulator::try_new(circuit, cfg)?
            .run()
            .trace
            .ok_or("emulator did not record a trace")?,
        "shmem-threads" => ThreadedRouter::try_new(circuit, cfg)?
            .run()
            .trace
            .ok_or("threaded router did not record a trace")?,
        other => {
            return Err(format!(
                "engine '{other}' has no shared-reference trace to analyse \
                 (msgpass engines are audited for replica staleness instead)"
            ))
        }
    };
    Ok(AnalysisReport::build(engine, procs, circuit, &trace, params.channel_overshoot))
}

/// Runs a message-passing engine with replica audits every
/// `audit_every` wires; the snapshots are the outcome's
/// [`MsgPassOutcome::replica_audits`].
///
/// Accepted engines: `msgpass-sender` (paper (2,10) sender-initiated
/// schedule) and `msgpass-receiver` ((1,5) receiver-initiated).
pub fn audit_staleness(
    circuit: &Circuit,
    engine: &str,
    procs: usize,
    params: RouterParams,
    audit_every: u32,
) -> Result<MsgPassOutcome, String> {
    let schedule = match engine {
        "msgpass-sender" => UpdateSchedule::sender_paper(),
        "msgpass-receiver" => UpdateSchedule::receiver_paper(),
        other => return Err(format!("'{other}' is not a message-passing engine")),
    };
    let cfg = MsgPassConfig::new(procs, schedule).with_params(params).with_audit_every(audit_every);
    cfg.validate()?;
    RegionMap::try_new(circuit.channels, circuit.grids, procs)?;
    Ok(locus_msgpass::run_msgpass(circuit, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    #[test]
    fn sequential_trace_has_zero_races() {
        let c = presets::small();
        let report =
            analyze_engine(&c, "sequential", 4, RouterParams::default()).expect("seq analyses");
        assert_eq!(report.engine, "sequential");
        assert_eq!(report.procs, 1);
        assert!(report.races.is_empty(), "single-processor trace can never race");
        assert_eq!(report.synchronized_pairs, 0);
        assert!(report.refs > 0);
    }

    #[test]
    fn one_processor_emulator_trace_is_race_free() {
        let c = presets::small();
        let report =
            analyze_engine(&c, "shmem-emul", 1, RouterParams::default()).expect("emul analyses");
        assert!(report.races.is_empty());
    }

    #[test]
    fn emulator_races_appear_with_processors_and_are_classified() {
        let c = presets::small();
        let report =
            analyze_engine(&c, "shmem-emul", 4, RouterParams::default()).expect("emul analyses");
        assert!(report.epochs >= 1);
        assert!(
            !report.races.is_empty(),
            "4 logical procs sharing an unlocked array must produce race pairs"
        );
        assert_eq!(report.benign_count() + report.quality_count(), report.races.len());
        assert!(!report.per_channel.is_empty());
        assert!(!report.per_wire.is_empty());
    }

    #[test]
    fn msgpass_staleness_audit_runs() {
        let c = presets::small();
        let outcome = audit_staleness(&c, "msgpass-sender", 4, RouterParams::default(), 2)
            .expect("audit runs");
        assert!(!outcome.deadlocked);
        assert!(!outcome.replica_audits.is_empty());
    }

    #[test]
    fn unknown_engines_are_rejected_with_names() {
        let c = presets::tiny();
        let err = analyze_engine(&c, "msgpass-sender", 4, RouterParams::default())
            .expect_err("msgpass has no trace");
        assert!(err.contains("staleness"));
        let err = audit_staleness(&c, "sequential", 1, RouterParams::default(), 2)
            .expect_err("sequential is not msgpass");
        assert!(err.contains("sequential"));
        let err = analyze_engine(&c, "emul", 2, RouterParams::default())
            .expect_err("only registry names are engines");
        assert!(err.contains("'emul'"), "{err}");
    }

    #[test]
    fn runs_no_trace_can_number_are_errors_on_every_traced_engine() {
        let c = presets::tiny();
        let long = RouterParams { iterations: 100_000, ..RouterParams::default() };
        for engine in ["sequential", "shmem-emul", "shmem-threads"] {
            let err = analyze_engine(&c, engine, 2, long).expect_err("100 000 epochs");
            assert!(err.contains("100000"), "{engine}: {err}");
        }
        let err =
            analyze_engine(&c, "shmem-emul", 65, RouterParams::default()).expect_err("65 procs");
        assert!(err.contains("64"), "{err}");
    }
}
