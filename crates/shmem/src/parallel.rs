//! The real multithreaded shared-memory router.
//!
//! This is the §3 implementation run on actual hardware threads: the cost
//! array lives in atomics and is read and written **without locks**
//! ("accesses to the cost array are not locked" — collisions are rare and
//! the algorithm tolerates them), wires are handed out by a
//! distributed-loop shared counter or a static assignment, and processors
//! meet at a barrier between iterations.
//!
//! Thread interleavings make runs nondeterministic in the default
//! distributed-loop schedule, so this engine backs the wall-clock
//! speedup demonstration only; all table values come from the
//! deterministic emulator in [`crate::emul`]. (Under a static assignment
//! with shard ownership — see `crate::shard` — runs *are* bitwise
//! repeatable at any thread count.) Each thread routes through its own
//! [`IterationDriver`] ledger; the routes live in per-wire mutexes every
//! thread shares, and the ledgers are merged after the join.
//!
//! Untraced runs default to **per-shard cost-array ownership**: each
//! worker evaluates against a private replica (plain `u16` rows and the
//! `fast_spans` sweep in place of a relaxed atomic load per cell, no
//! false sharing) refreshed from the shared atomic truth at iteration
//! barriers. Traced runs keep the live per-cell shared-read
//! path so the recorded reference stream stays byte-exact.

// Audited executor (clippy.toml): the one scoped spawn per router thread,
// and the wall-clock reads that are this engine's measurement.
#![expect(clippy::disallowed_methods)]

use std::cell::{Cell, RefCell};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use locus_circuit::{Circuit, GridCell};
use locus_coherence::{MemRef, RefKind, Trace};
use locus_router::engine::{IterationDriver, WireFeed};
use locus_router::router::route_wire_scratch;
use locus_router::{CostArray, CostView, EvalScratch, QualityMetrics, Route, WorkStats};
use parking_lot::Mutex;

use crate::cell_addr;
use crate::config::ShmemConfig;
use crate::shard::{AtomicCostArray, ShardWorker};

/// Wraps the shared atomic array with per-read trace recording for one
/// thread. Reads go through the per-cell [`CostView::cost_at`] default
/// paths, so the recorded stream is exactly the cells the evaluator
/// examined; stamps are wall-clock nanoseconds since run start.
struct TracingView<'a> {
    inner: &'a AtomicCostArray,
    trace: &'a RefCell<Trace>,
    start: Instant,
    proc: u32,
    epoch: Cell<u32>,
    wire: Cell<u32>,
}

impl TracingView<'_> {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn record(&self, cell: GridCell, kind: RefKind, delta: i8) {
        self.trace.borrow_mut().push(
            MemRef::new(
                self.now_ns(),
                self.proc,
                cell_addr(cell.channel, cell.x, self.inner.grids()),
                kind,
            )
            .with_epoch(self.epoch.get())
            .expect("validate() bounds the iterations of a traced run")
            .with_wire(self.wire.get())
            .with_delta(delta),
        );
    }
}

impl CostView for TracingView<'_> {
    fn channels(&self) -> u16 {
        self.inner.channels()
    }
    fn grids(&self) -> u16 {
        self.inner.grids()
    }
    #[inline]
    fn cost_at(&self, cell: GridCell) -> u32 {
        self.record(cell, RefKind::Read, 0);
        self.inner.cost_at(cell)
    }
}

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
    /// threads; approximate under concurrent writes, like everything in
    /// this engine).
    pub occupancy_by_iteration: Vec<u64>,
    /// Final cost-array state (rebuilt from the final routes).
    pub cost: CostArray,
    /// The shared-reference trace, when collection was enabled
    /// (wall-clock stamps; the threads' streams merged by time).
    pub trace: Option<Trace>,
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
    /// among the threads.
    pub fn try_new(circuit: &'a Circuit, config: ShmemConfig) -> Result<Self, String> {
        config.validate()?;
        config.check_surface(circuit)?;
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
        let collect_trace = self.config.collect_trace;
        // One time-ordered stream per thread, in thread order.
        let thread_traces: Vec<Mutex<Trace>> = (0..n_threads).map(|_| Mutex::default()).collect();

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
                let thread_traces = &thread_traces;
                let circuit = self.circuit;
                scope.spawn(move || {
                    let mut scratch = EvalScratch::default();
                    // Traced runs must record the exact per-cell read
                    // stream, so they keep the live shared-read path;
                    // everything else evaluates against a worker-owned
                    // replica (see `crate::shard`).
                    let mut worker =
                        (!collect_trace).then(|| ShardWorker::new(circuit.channels, circuit.grids));
                    // The threads record no events, so every stamp is 0.
                    let mut driver = IterationDriver::default();
                    // Per-thread trace buffer: no cross-thread sharing on
                    // the hot path, handed over at exit.
                    let local = RefCell::new(Trace::new());
                    let traced = TracingView {
                        inner: shared,
                        trace: &local,
                        start,
                        proc: t as u32,
                        epoch: Cell::new(0),
                        wire: Cell::new(MemRef::NO_WIRE),
                    };
                    for (iteration, feed) in feeds.iter().enumerate() {
                        traced.epoch.set(iteration as u32);
                        if let Some(w) = worker.as_mut() {
                            // Snapshot the shared truth — quiet here: the
                            // previous iteration's exit barrier ordered
                            // every write before this point — then meet
                            // the other workers so nobody starts writing
                            // while a snapshot is still being taken.
                            w.refresh(shared);
                            barrier.wait();
                        }
                        let mut cursor = 0usize;
                        while let Some(wire_id) = feed.next(t, &mut cursor) {
                            traced.wire.set(wire_id as u32);
                            let mut slot = routes[wire_id].lock();
                            if let Some(old) = slot.take() {
                                driver.rip_up(wire_id, &old, 0);
                                match worker.as_mut() {
                                    Some(w) => w.rip_up(shared, &old),
                                    None => shared.remove_route(&old),
                                }
                                if collect_trace {
                                    for &cell in old.cells() {
                                        traced.record(cell, RefKind::Write, -1);
                                    }
                                }
                            }
                            let wire = circuit.wire(wire_id);
                            let eval = match worker.as_ref() {
                                Some(w) => {
                                    route_wire_scratch(&w.local, wire, overshoot, &mut scratch)
                                }
                                None => route_wire_scratch(&traced, wire, overshoot, &mut scratch),
                            };
                            // Same occupancy definition as the other
                            // engines: merged-route cost at routing time.
                            // A sharded worker prices against its own
                            // replica (the view it decided on); otherwise
                            // against the live shared array (concurrent
                            // writes make that approximate, like
                            // everything here).
                            let at_decision = match worker.as_ref() {
                                Some(w) => w.local.route_cost(&eval.route),
                                None => shared.route_cost(&eval.route),
                            };
                            match worker.as_mut() {
                                Some(w) => w.commit(shared, &eval.route),
                                None => shared.add_route(&eval.route),
                            }
                            if collect_trace {
                                for &cell in eval.route.cells() {
                                    traced.record(cell, RefKind::Write, 1);
                                }
                            }
                            *slot = Some(driver.commit(wire_id, eval, at_decision, 0));
                        }
                        barrier.wait();
                        driver.close_iteration();
                    }
                    ledgers.lock().push((*driver.work(), driver.occupancy_by_iteration().to_vec()));
                    if collect_trace {
                        *thread_traces[t].lock() = local.into_inner();
                    }
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
        let trace = collect_trace.then(|| {
            let streams: Vec<Trace> = thread_traces.into_iter().map(Mutex::into_inner).collect();
            Trace::merge(&streams)
        });
        ThreadedOutcome { quality, wall, routes, work, occupancy_by_iteration, cost: truth, trace }
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
    fn trace_collection_on_threads_records_reads_and_writes() {
        let c = presets::small();
        let out = ThreadedRouter::new(&c, ShmemConfig::new(2).with_trace()).run();
        let trace = out.trace.expect("trace requested");
        assert!(trace.is_sorted());
        // Every commit writes each route cell once; rip-ups add more.
        assert_eq!(trace.write_count() as u64, out.work.cells_written);
        assert!(trace.len() as u64 > out.work.cells_written);
        let max_addr = (c.channels as u32 * c.grids as u32) * 2;
        let iterations = ShmemConfig::new(2).params.iterations as u32;
        for r in trace.refs() {
            assert!(r.addr < max_addr);
            assert!(u32::from(r.epoch) < iterations);
            assert!((r.wire as usize) < c.wire_count());
        }
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
    fn no_trace_on_threads_by_default() {
        let c = presets::tiny();
        let out = ThreadedRouter::new(&c, ShmemConfig::new(2)).run();
        assert!(out.trace.is_none());
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
