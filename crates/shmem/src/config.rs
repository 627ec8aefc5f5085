//! Shared-memory run configuration.

use locus_circuit::{Circuit, WireId};
use locus_coherence::MemRef;
use locus_router::{assign, AssignmentStrategy, RegionMap, RouterParams};

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
    /// Modelled time to examine one cost-array cell (ns); the Multimax
    /// NS32032-class node of §2.1.
    pub cell_eval_ns: u64,
    /// Modelled time to write one cell (rip-up / commit).
    pub cell_write_ns: u64,
    /// Modelled overhead of fetching a wire index from the distributed
    /// loop (one shared counter RMW).
    pub dispatch_ns: u64,
    /// Whether the run records a Tango-style reference trace (honoured
    /// by both the emulator and the real threaded router).
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
            cell_eval_ns: 4_000,
            cell_write_ns: 500,
            dispatch_ns: 2_000,
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
            return Err("need at least one processor".into());
        }
        if self.n_procs > 64 {
            return Err("coherence directory supports at most 64 processors".into());
        }
        if self.collect_trace {
            MemRef::check_epochs(self.params.iterations)?;
        }
        Ok(())
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
    }
}
