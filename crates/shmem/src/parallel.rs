//! The real multithreaded shared-memory router.
//!
//! This is the §3 implementation run on actual hardware threads: the
//! shared cost array lives in atomics and is written **without locks**
//! ("accesses to the cost array are not locked" — collisions are rare and
//! the algorithm tolerates them), wires are handed out by a
//! distributed-loop shared counter or a static assignment, and processors
//! meet at a barrier between iterations.
//!
//! Every worker evaluates against a private replica of the array (plain
//! `u16` rows and the row-slice jog sweep in place of a relaxed atomic
//! load per cell, no false sharing), refreshed from the shared atomic
//! truth at iteration barriers; see `crate::shard`. Thread interleavings
//! make runs nondeterministic in the default distributed-loop schedule,
//! so this engine backs the wall-clock speedup demonstration only; all
//! table values come from the deterministic emulator in [`crate::emul`].
//! Under a static assignment runs *are* bitwise repeatable at any thread
//! count. Each thread routes through its own [`IterationDriver`] ledger;
//! the routes live in per-wire mutexes every thread shares, and the
//! ledgers are merged after the join.
//!
//! The threads record no reference trace: they read their replicas, not
//! the shared array. The multiplexed [`crate::ShmemEmulator`] records the
//! trace, as Tango's multiplexed execution did (§2.2).

// Audited executor (clippy.toml): the one scoped spawn per router thread,
// and the wall-clock reads that are this engine's measurement.
#![expect(clippy::disallowed_methods)]

use std::sync::Barrier;
use std::time::{Duration, Instant};

use locus_circuit::Circuit;
use locus_router::engine::{IterationDriver, WireFeed};
use locus_router::router::route_wire_scratch;
use locus_router::{CostArray, EvalScratch, QualityMetrics, Route, WorkStats};
use parking_lot::Mutex;

use crate::config::ShmemConfig;
use crate::shard::{AtomicCostArray, ShardWorker};

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedOutcome {
    /// Circuit height and occupancy factor of the routed result.
    pub quality: QualityMetrics,
    /// Wall-clock duration of the routing phase.
    pub wall: Duration,
    /// Final route of every wire.
    pub routes: Vec<Route>,
    /// Aggregate routing work across all threads.
    pub work: WorkStats,
    /// Occupancy factor accumulated in each iteration (summed across
    /// threads, each priced against its own replica).
    pub occupancy_by_iteration: Vec<u64>,
    /// Final cost-array state (rebuilt from the final routes).
    pub cost: CostArray,
}

/// Real-thread executor; see [module docs](self).
pub struct ThreadedRouter<'a> {
    circuit: &'a Circuit,
    config: ShmemConfig,
}

impl<'a> ThreadedRouter<'a> {
    /// Creates an executor (`config.n_procs` = thread count; the
    /// emulator-only timing fields are ignored).
    ///
    /// # Panics
    /// Panics if the configuration is invalid; [`Self::try_new`] says so
    /// instead.
    pub fn new(circuit: &'a Circuit, config: ShmemConfig) -> Self {
        Self::try_new(circuit, config).expect("invalid shared-memory configuration")
    }

    /// Creates an executor, or returns what `ShmemConfig::validate`
    /// finds wrong with `config`, on its own or as a split of `circuit`
    /// among the threads. A config that asks for a trace is refused: the
    /// threads read private replicas, and the emulator records the trace.
    pub fn try_new(circuit: &'a Circuit, config: ShmemConfig) -> Result<Self, String> {
        config.validate()?;
        config.check_surface(circuit)?;
        if config.collect_trace {
            return Err("the threaded router records no trace: its threads read private \
                        replicas, not the shared array; shmem-emul records the trace"
                .into());
        }
        Ok(ThreadedRouter { circuit, config })
    }

    /// Routes the circuit on `n_procs` OS threads.
    pub fn run(self) -> ThreadedOutcome {
        let n_threads = self.config.n_procs;
        let n_wires = self.circuit.wire_count();
        let iterations = self.config.params.iterations;
        let overshoot = self.config.params.channel_overshoot;

        let static_lists = self.config.scheduling.static_lists(self.circuit, n_threads);

        let shared = AtomicCostArray::new(self.circuit.channels, self.circuit.grids);
        let routes: Vec<Mutex<Option<Route>>> = (0..n_wires).map(|_| Mutex::new(None)).collect();
        // One wire supply per iteration (the distributed-loop counter
        // resets at each barrier).
        let feeds: Vec<WireFeed> =
            (0..iterations).map(|_| WireFeed::new(n_wires, static_lists.as_deref())).collect();
        let barrier = Barrier::new(n_threads);
        let ledgers: Mutex<Vec<(WorkStats, Vec<u64>)>> = Mutex::new(Vec::new());

        // Wall-clock here is the measurement itself (it feeds the
        // reported route timings), not hidden nondeterminism.
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let shared = &shared;
                let routes = &routes;
                let feeds = &feeds;
                let barrier = &barrier;
                let ledgers = &ledgers;
                let circuit = self.circuit;
                scope.spawn(move || {
                    let mut scratch = EvalScratch::default();
                    let mut worker = ShardWorker::new(circuit.channels, circuit.grids);
                    // The threads record no events, so every stamp is 0.
                    let mut driver = IterationDriver::default();
                    for feed in feeds {
                        // Snapshot the shared truth — quiet here: the
                        // previous iteration's exit barrier ordered every
                        // write before this point — then meet the other
                        // workers so nobody starts writing while a
                        // snapshot is still being taken.
                        worker.refresh(shared);
                        barrier.wait();
                        let mut cursor = 0usize;
                        while let Some(wire_id) = feed.next(t, &mut cursor) {
                            let mut slot = routes[wire_id].lock();
                            if let Some(old) = slot.take() {
                                driver.rip_up(wire_id, &old, 0);
                                worker.rip_up(shared, &old);
                                scratch.recycle(old);
                            }
                            let wire = circuit.wire(wire_id);
                            let eval =
                                route_wire_scratch(&worker.local, wire, overshoot, &mut scratch);
                            // Same occupancy definition as the other
                            // engines: merged-route cost at routing time,
                            // priced against the replica the worker
                            // decided on.
                            let at_decision = worker.commit(shared, &eval.route);
                            *slot = Some(driver.commit(wire_id, eval, at_decision, 0));
                        }
                        barrier.wait();
                        driver.close_iteration();
                    }
                    ledgers.lock().push((*driver.work(), driver.occupancy_by_iteration().to_vec()));
                });
            }
        });
        let wall = start.elapsed();

        let mut work = WorkStats::default();
        let mut occupancy_by_iteration = vec![0u64; iterations];
        for (w, occ) in ledgers.into_inner() {
            work += w;
            for (total, o) in occupancy_by_iteration.iter_mut().zip(occ) {
                *total += o;
            }
        }

        let routes: Vec<Route> =
            routes.into_iter().map(|m| m.into_inner().expect("every wire routed")).collect();
        let mut truth = CostArray::new(self.circuit.channels, self.circuit.grids);
        for r in &routes {
            truth.add_route(r);
        }
        let quality = QualityMetrics::from_final_state(
            &truth,
            occupancy_by_iteration.last().copied().unwrap_or(0),
        );
        ThreadedOutcome { quality, wall, routes, work, occupancy_by_iteration, cost: truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;
    use locus_router::{AssignmentStrategy, RouterParams, SequentialRouter};

    #[test]
    fn one_thread_matches_sequential_router() {
        let c = presets::small();
        let out = ThreadedRouter::new(&c, ShmemConfig::new(1)).run();
        let seq = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(out.quality, seq.quality);
        assert_eq!(out.routes, seq.routes);
        assert_eq!(out.work, seq.work, "one thread performs exactly the sequential work");
        assert_eq!(out.occupancy_by_iteration, seq.occupancy_by_iteration);
    }

    #[test]
    fn four_threads_route_everything_conservatively() {
        let c = presets::small();
        let out = ThreadedRouter::new(&c, ShmemConfig::new(4)).run();
        assert_eq!(out.routes.len(), c.wire_count());
        let mut truth = CostArray::new(c.channels, c.grids);
        for r in &out.routes {
            truth.add_route(r);
        }
        assert_eq!(truth.circuit_height(), out.quality.circuit_height);
        assert!(out.wall > Duration::ZERO);
        // Every iteration routes every wire once, whatever the schedule.
        let iterations = ShmemConfig::new(4).params.iterations as u64;
        assert_eq!(out.work.wires_routed, c.wire_count() as u64 * iterations);
    }

    #[test]
    fn quality_stays_in_a_sane_band_under_races() {
        let c = presets::bnr_e();
        let seq = SequentialRouter::new(&c, RouterParams::default()).run();
        let out = ThreadedRouter::new(&c, ShmemConfig::new(4)).run();
        // Concurrency costs quality but not catastrophically (§5.4 sees
        // 5–10% degradation at 16 processors).
        let h = out.quality.circuit_height as f64;
        let hs = seq.quality.circuit_height as f64;
        assert!(h <= hs * 1.5, "threaded height {h} vs sequential {hs}");
        assert!(h >= hs * 0.8, "threaded height {h} suspiciously better than {hs}");
    }

    #[test]
    fn a_run_no_trace_can_number_or_no_directory_can_hold_is_an_error() {
        let c = presets::tiny();
        let long = RouterParams::default().with_iterations(100_000);
        let traced = ShmemConfig::new(2).with_params(long).with_trace();
        let err = ThreadedRouter::try_new(&c, traced).err().expect("100 000 epochs");
        assert!(err.contains("100000"), "{err}");
        let err = ThreadedRouter::try_new(&c, ShmemConfig::new(65)).err().expect("65 threads");
        assert!(err.contains("64"), "{err}");
    }

    #[test]
    fn a_traced_config_is_refused_and_the_error_names_the_emulator() {
        let c = presets::tiny();
        let err = ThreadedRouter::try_new(&c, ShmemConfig::new(2).with_trace())
            .err()
            .expect("the threads record no trace");
        assert!(err.contains("private replicas"), "{err}");
        assert!(err.contains("shmem-emul"), "{err}");
    }

    #[test]
    fn static_assignment_runs_on_threads() {
        let c = presets::small();
        let cfg = ShmemConfig::new(4)
            .with_static_assignment(AssignmentStrategy::Locality { threshold_cost: Some(30) });
        let out = ThreadedRouter::new(&c, cfg).run();
        assert_eq!(out.routes.len(), c.wire_count());
    }

    #[test]
    fn shard_ownership_with_static_assignment_is_deterministic() {
        // Worker replicas only see other workers' routes at iteration
        // barriers, so with a fixed wire assignment every decision is a
        // function of the schedule alone — bitwise repeatable at any P.
        let c = presets::small();
        let cfg = ShmemConfig::new(4).with_static_assignment(AssignmentStrategy::RoundRobin);
        let a = ThreadedRouter::new(&c, cfg).run();
        let b = ThreadedRouter::new(&c, cfg).run();
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.occupancy_by_iteration, b.occupancy_by_iteration);
    }
}
