//! Executing one routing job and pricing it in virtual time.
//!
//! The server separates *what a job costs* from *when it runs*: a
//! [`JobRunner`] routes the job's circuit and returns a deterministic
//! virtual service time, and the admission simulation (see
//! [`server`](crate::server)) decides when that service occupies a
//! simulated worker. Keeping the cost model free of wall clocks is what
//! makes two runs of the same seed byte-identical regardless of host
//! speed or pool size.

use locus_circuit::Circuit;
use locus_router::{EngineRun, RouterParams};

use crate::workload::JobSpec;

/// The deterministic result of routing one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobExecution {
    /// Virtual milliseconds of service the job consumes on a worker.
    pub service_ms: u64,
    /// Final circuit height of the routed result (quality signal).
    pub circuit_height: u64,
    /// Wires routed (including re-routes across iterations).
    pub wires_routed: u64,
    /// True when the engine run finished degraded (watchdog or recovery
    /// intervention). Health policies treat degraded runs as retryable.
    pub degraded: bool,
}

/// Routes one job. Implementations must be deterministic functions of
/// the job spec for the service's reports to reproduce.
pub trait JobRunner: Sync {
    /// Routes `job`, returning its execution or an error string (e.g. an
    /// unknown engine name).
    fn run(&self, job: &JobSpec) -> Result<JobExecution, String>;
}

/// Runs the routing engine registered under a name on a circuit, with
/// router parameters, a processor count and whether to measure traffic.
/// The facade crate's `engines::run` has exactly this signature; the
/// service takes it as a value to avoid depending on the facade.
pub type EngineFactory =
    fn(&str, &Circuit, &RouterParams, usize, bool) -> Result<EngineRun, String>;

/// Virtual cost-model rate for engines without a clock: cost-array cells
/// examined per virtual millisecond. The sequential router examines a
/// few hundred cells per wire, so at 150 cells/ms the tiny preset costs
/// ~20 virtual ms and the bnrE stand-in several virtual seconds — a
/// spread wide enough to make queueing behaviour interesting.
pub const DEFAULT_CELLS_PER_MS: u64 = 150;

/// The production [`JobRunner`]: instantiates the job's circuit family,
/// routes it on the named engine, and prices the run in virtual ms —
/// the engine's own simulated seconds when it has a clock, else the
/// cells-examined work model.
pub struct EngineRunner {
    factory: EngineFactory,
    /// Cells examined per virtual ms for clockless engines.
    pub cells_per_ms: u64,
}

impl EngineRunner {
    /// A runner resolving engine names through `factory` with the
    /// default cost model.
    pub fn new(factory: EngineFactory) -> Self {
        EngineRunner { factory, cells_per_ms: DEFAULT_CELLS_PER_MS }
    }
}

impl JobRunner for EngineRunner {
    fn run(&self, job: &JobSpec) -> Result<JobExecution, String> {
        let circuit = job.class.family.instantiate(job.circuit_seed);
        let class = &job.class;
        let run = (self.factory)(class.engine, &circuit, &class.params, class.procs, false)?;
        let service_ms = match run.time_secs {
            Some(t) => (t * 1_000.0).ceil() as u64,
            None => run.outcome.work.cells_examined / self.cells_per_ms,
        }
        .max(1);
        Ok(JobExecution {
            service_ms,
            circuit_height: run.outcome.quality.circuit_height,
            wires_routed: run.outcome.work.wires_routed,
            degraded: run.degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CircuitFamily, JobClass};
    use locus_router::SequentialRouter;

    fn seq_only(
        name: &str,
        circuit: &Circuit,
        params: &RouterParams,
        _procs: usize,
        _traffic: bool,
    ) -> Result<EngineRun, String> {
        match name {
            "sequential" => Ok(EngineRun {
                outcome: SequentialRouter::new(circuit, *params).run(),
                mbytes: None,
                time_secs: None,
                degraded: false,
            }),
            other => Err(format!("unknown engine '{other}'")),
        }
    }

    fn job(family: CircuitFamily) -> JobSpec {
        JobSpec {
            id: 0,
            arrival_ms: 0,
            class: JobClass::new(family, "sequential", 1),
            circuit_seed: 42,
        }
    }

    #[test]
    fn engine_runner_is_deterministic_and_sized_by_circuit() {
        let runner = EngineRunner::new(seq_only);
        let tiny = runner.run(&job(CircuitFamily::Tiny)).expect("tiny routes");
        let small = runner.run(&job(CircuitFamily::Small)).expect("small routes");
        assert_eq!(tiny, runner.run(&job(CircuitFamily::Tiny)).expect("tiny routes again"));
        assert!(small.service_ms > tiny.service_ms, "{small:?} vs {tiny:?}");
        assert!(tiny.service_ms >= 1);
        assert!(tiny.circuit_height > 0);
    }

    #[test]
    fn unknown_engines_error_instead_of_panicking() {
        let runner = EngineRunner::new(seq_only);
        let mut j = job(CircuitFamily::Tiny);
        j.class.engine = "nonesuch";
        assert!(runner.run(&j).is_err());
    }
}
