//! Shared-memory run configuration.

use locus_circuit::{Circuit, WireId};
use locus_coherence::MemRef;
use locus_router::{assign, mesh_dims, AssignmentStrategy, RegionMap, RouterParams};

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
            return Err("n_procs is 0: need at least one processor".into());
        }
        if self.n_procs > 64 {
            return Err(format!(
                "n_procs is {}: the coherence directory supports at most 64 processors",
                self.n_procs
            ));
        }
        if self.params.iterations == 0 {
            return Err("params.iterations is 0: at least one routing iteration is required".into());
        }
        if self.collect_trace {
            MemRef::check_epochs(self.params.iterations)?;
        }
        Ok(())
    }

    /// Checks that `circuit` can be split among the processors when the
    /// assignment is static: it gives every processor of the
    /// [`mesh_dims`] mesh a region of at least one cell.
    pub(crate) fn check_surface(&self, circuit: &Circuit) -> Result<(), String> {
        let (rows, cols) = mesh_dims(self.n_procs);
        let (channels, grids) = (circuit.channels as usize, circuit.grids as usize);
        match self.scheduling {
            Scheduling::Static(_) if channels < rows || grids < cols => Err(format!(
                "n_procs {} makes a {rows}x{cols} processor mesh, which a static assignment \
                 cannot split the {channels}x{grids} surface of `{}` among",
                self.n_procs, circuit.name
            )),
            _ => Ok(()),
        }
    }

    /// Checks that an emulated run of `circuit` can count its work and
    /// keep its logical clock in 64 bits, naming the field that would
    /// carry either past `u64::MAX`.
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
        let per_iteration = [
            ("dispatch_ns", self.dispatch_ns, circuit.wire_count() as u128),
            ("cell_eval_ns", self.cell_eval_ns, connections * reach * reach / 2),
            ("cell_write_ns", self.cell_write_ns, 2 * connections * reach),
        ];
        let iterations = self.params.iterations as u128;
        let limit = u128::from(u64::MAX);
        let events: u128 = per_iteration.iter().map(|&(_, _, count)| count).sum();
        if events.saturating_mul(iterations) > limit {
            return Err(format!(
                "params.iterations {} would overflow the work counters of a run of `{}`",
                self.params.iterations, circuit.name
            ));
        }
        // Each term fits in u128 now: its count times `iterations` is at most `limit`.
        let terms = per_iteration
            .map(|(field, ns, count)| (field, ns, u128::from(ns) * count * iterations));
        if terms.iter().map(|&(_, _, term)| term).sum::<u128>() <= limit {
            return Ok(());
        }
        let (field, ns, _) = terms.into_iter().max_by_key(|&(_, _, term)| term).expect("three");
        Err(format!(
            "{field} {ns} over params.iterations {} could carry the logical clock of a run of \
             `{}` past u64::MAX",
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
        let iterations = |iterations| RouterParams { iterations, ..ok.params };
        for (field, cfg) in [
            ("cell_eval_ns", ShmemConfig { cell_eval_ns: u64::MAX, ..ok }),
            ("cell_eval_ns", ShmemConfig { cell_eval_ns: 1 << 50, ..ok }),
            ("cell_write_ns", ShmemConfig { cell_write_ns: u64::MAX, ..ok }),
            ("dispatch_ns", ShmemConfig { dispatch_ns: u64::MAX, ..ok }),
            ("cell_eval_ns", ok.with_params(iterations(1 << 40))),
        ] {
            let err = cfg.check_clock(&tiny).expect_err(field);
            assert!(err.contains(field) && err.contains("params.iterations"), "{field}: {err}");
        }
        // A clock that never moves still counts the work it does.
        let frozen = ShmemConfig { cell_eval_ns: 0, cell_write_ns: 0, dispatch_ns: 0, ..ok };
        assert_eq!(frozen.with_params(iterations(1 << 40)).check_clock(&tiny), Ok(()));
        let err = frozen.with_params(iterations(usize::MAX)).check_clock(&tiny).expect_err("MAX");
        assert!(err.contains("params.iterations") && err.contains("work counters"), "{err}");
    }
}
