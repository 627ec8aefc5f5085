//! Shared-memory run configuration.

use locus_circuit::{Circuit, WireId};
use locus_coherence::MemRef;
use locus_router::{assign, AssignmentStrategy, RegionMap, RouterParams};

use crate::emul::{CELL_EVAL_NS, CELL_WRITE_NS, DISPATCH_NS};

/// How wires are handed to processors (§3, §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// The original "distributed loop": a shared counter hands out the
    /// next wire to whichever processor asks first.
    DynamicLoop,
    /// Static assignment computed before routing (round robin or
    /// locality/ThresholdCost — the Table 5 sweep).
    Static(AssignmentStrategy),
}

impl Scheduling {
    /// Resolves the per-processor wire lists for a static assignment
    /// (`None` for the distributed loop). The region map used for
    /// locality-based assignment matches the message-passing mesh.
    pub(crate) fn static_lists(
        &self,
        circuit: &Circuit,
        n_procs: usize,
    ) -> Option<Vec<Vec<WireId>>> {
        match self {
            Scheduling::DynamicLoop => None,
            Scheduling::Static(strategy) => {
                let regions = RegionMap::new(circuit.channels, circuit.grids, n_procs);
                Some(assign(circuit, &regions, *strategy).wires_per_proc)
            }
        }
    }
}

/// Parameters of a shared-memory routing run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShmemConfig {
    /// Number of (logical or real) processors.
    pub n_procs: usize,
    /// Core routing parameters.
    pub params: RouterParams,
    /// Wire distribution strategy.
    pub scheduling: Scheduling,
    /// Whether the emulator records a Tango-style reference trace. The
    /// threaded router reads private replicas and refuses a config that
    /// sets it.
    pub collect_trace: bool,
}

impl ShmemConfig {
    /// Default configuration for `n_procs` processors: dynamic loop, no
    /// trace collection.
    pub fn new(n_procs: usize) -> Self {
        ShmemConfig {
            n_procs,
            params: RouterParams::default(),
            scheduling: Scheduling::DynamicLoop,
            collect_trace: false,
        }
    }

    /// Enables Tango trace collection.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Uses a static assignment instead of the distributed loop.
    pub fn with_static_assignment(mut self, strategy: AssignmentStrategy) -> Self {
        self.scheduling = Scheduling::Static(strategy);
        self
    }

    /// Overrides the router parameters.
    pub fn with_params(mut self, params: RouterParams) -> Self {
        self.params = params;
        self
    }

    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.n_procs == 0 {
            return Err("n_procs is 0: need at least one processor".into());
        }
        if self.n_procs > 64 {
            return Err(format!(
                "n_procs is {}: the coherence directory supports at most 64 processors",
                self.n_procs
            ));
        }
        self.params.validate()?;
        if self.collect_trace {
            MemRef::check_epochs(self.params.iterations)?;
        }
        Ok(())
    }

    /// Checks that `circuit` can be split among the processors when the
    /// assignment is static (see [`RegionMap::try_new`]).
    pub(crate) fn check_surface(&self, circuit: &Circuit) -> Result<(), String> {
        match self.scheduling {
            Scheduling::Static(_) => {
                RegionMap::try_new(circuit.channels, circuit.grids, self.n_procs).map(drop)
            }
            Scheduling::DynamicLoop => Ok(()),
        }
    }

    /// Checks that an emulated run of `circuit` keeps its logical clock
    /// in 64 bits. Every reference the run counts costs the clock at least
    /// `CELL_WRITE_NS`, so the same bound keeps the work counters in range.
    ///
    /// The bound is per iteration, summed over the wires, each dispatched
    /// once: a connection weighs at most `channels + grids` candidates of
    /// at most `2 (channels + grids)` cells each, and its route at most
    /// `2 (channels + grids)` cells, written once by the commit and once by
    /// the next iteration's rip-up. A processor's clock only advances by
    /// its own work and the barrier takes the latest, so the run ends by
    /// `iterations` times that sum.
    pub(crate) fn check_clock(&self, circuit: &Circuit) -> Result<(), String> {
        let reach = 2 * (u128::from(circuit.channels) + u128::from(circuit.grids));
        let connections: u128 =
            circuit.wires.iter().map(|w| w.pins.len().saturating_sub(1).max(1) as u128).sum();
        let per_iteration = u128::from(DISPATCH_NS) * circuit.wire_count() as u128
            + u128::from(CELL_EVAL_NS) * (connections * reach * reach / 2)
            + u128::from(CELL_WRITE_NS) * (2 * connections * reach);
        if per_iteration.saturating_mul(self.params.iterations as u128) <= u128::from(u64::MAX) {
            return Ok(());
        }
        Err(format!(
            "params.iterations {} could carry the logical clock of a run of `{}` past u64::MAX",
            self.params.iterations, circuit.name
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ShmemConfig::new(16)
            .with_trace()
            .with_static_assignment(AssignmentStrategy::RoundRobin);
        assert!(c.collect_trace);
        assert_eq!(c.scheduling, Scheduling::Static(AssignmentStrategy::RoundRobin));
        c.validate().unwrap();
    }

    #[test]
    fn validation_bounds_processors() {
        assert!(ShmemConfig::new(0).validate().is_err());
        assert!(ShmemConfig::new(65).validate().is_err());
        assert!(ShmemConfig::new(64).validate().is_ok());
    }

    #[test]
    fn validation_bounds_the_iterations_of_a_traced_run_only() {
        let long = |n| ShmemConfig::new(4).with_params(RouterParams::default().with_iterations(n));
        assert!(long(256).with_trace().validate().is_ok());
        let err = long(257).with_trace().validate().expect_err("epoch 256 fits no record");
        assert!(err.contains("256") && err.contains("257"), "{err}");
        assert!(long(usize::MAX).with_trace().validate().is_err());
        assert!(long(usize::MAX).validate().is_ok(), "an untraced run numbers no epochs");
        let none =
            ShmemConfig::new(4).with_params(RouterParams { iterations: 0, ..long(1).params });
        let err = none.validate().expect_err("a run routes at least once");
        assert!(err.contains("params.iterations"), "{err}");
    }

    #[test]
    fn a_static_assignment_needs_a_region_for_every_processor() {
        let tiny = locus_circuit::presets::tiny(); // 4 channels × 24 grids
        let fixed = |n| ShmemConfig::new(n).with_static_assignment(AssignmentStrategy::RoundRobin);
        assert_eq!(fixed(16).check_surface(&tiny), Ok(()), "4×4");
        let err = fixed(64).check_surface(&tiny).expect_err("8×8 on 4 channels");
        assert!(err.contains("n_procs 64") && err.contains("8x8"), "{err}");
        assert_eq!(ShmemConfig::new(64).check_surface(&tiny), Ok(()), "the loop needs no regions");
    }

    #[test]
    fn a_timing_that_could_overflow_the_clock_is_named() {
        let tiny = locus_circuit::presets::tiny();
        let ok = ShmemConfig::new(2);
        assert_eq!(ok.check_clock(&tiny), Ok(()));
        let iterations = |iterations| ok.with_params(RouterParams { iterations, ..ok.params });
        assert_eq!(iterations(1 << 30).check_clock(&tiny), Ok(()));
        for n in [1 << 40, usize::MAX] {
            let err = iterations(n).check_clock(&tiny).expect_err("past u64::MAX");
            assert!(err.contains(&format!("params.iterations {n}")), "{err}");
        }
    }
}
