//! The deterministic shared-memory concurrency emulator with Tango-style
//! trace collection.
//!
//! Logical processors are multiplexed with per-processor logical clocks
//! (the Tango methodology, §2.2: traces "are generated on a uniprocessor
//! by spawning the specified number of processes and multiplexing their
//! execution"). The concurrency semantics captured are exactly those of
//! the unlocked shared cost array (§3):
//!
//! * a processor **evaluates** a wire against the shared array as it
//!   stands when the evaluation begins (every cell the candidate sweep
//!   reads is recorded, in the order it reads them);
//! * its increments **commit** only after the modelled routing time has
//!   elapsed, so wires being routed simultaneously on other processors do
//!   not see them — the staleness that degrades quality as P grows;
//! * processors meet at a **barrier** between iterations (§3: "processes
//!   are blocked at a barrier until all the processors are finished").
//!
//! Trace criticality: rip-up and commit stores are tagged
//! [`Criticality::Critical`] — they gate every other processor's view of
//! the cost array and the wire's route decision is unusable until they
//! land — while candidate-sweep evaluation reads stay
//! [`Criticality::Background`] (speculative, prefetch-like; most
//! candidates lose). Criticality-aware memory backends use the tags to
//! service critical requests first.
//!
//! Work accounting, per-iteration occupancy, and event emission live in
//! the shared [`IterationDriver`]; this module owns what is
//! emulator-specific — every wire's route, logical clocks, the
//! evaluate/commit split, and the reference trace. Every rip-up, candidate sweep and commit is
//! one burst of a [`TraceRecorder`]: the references of a burst share
//! everything but their address and their evenly spaced times. A sweep's
//! span query goes into its burst as one run of addresses.

use std::cell::RefCell;

use locus_circuit::{Circuit, GridCell, Wire, WireId};
use locus_coherence::{BurstWriter, Criticality, MemRef, RefKind, Trace, TraceRecorder};
use locus_obs::Obs;
use locus_router::engine::{IterationDriver, WireFeed};
use locus_router::router::{route_wire_scratch, WireEvaluation};
use locus_router::{CostArray, CostView, EvalScratch, ProcId, QualityMetrics, Route, WorkStats};

use crate::cell_addr;
use crate::config::ShmemConfig;

/// Modelled time to examine one cost-array cell (ns); the Multimax
/// NS32032-class node of §2.1.
pub(crate) const CELL_EVAL_NS: u64 = 4_000;

/// Modelled time to write one cell (rip-up / commit, ns).
pub(crate) const CELL_WRITE_NS: u64 = 500;

/// Modelled overhead of fetching a wire index from the distributed loop
/// (one shared counter RMW, ns).
pub(crate) const DISPATCH_NS: u64 = 2_000;

/// Result of an emulated shared-memory run.
#[derive(Clone, Debug)]
pub struct ShmemOutcome {
    /// Circuit height and occupancy factor.
    pub quality: QualityMetrics,
    /// Modelled execution time (max logical clock).
    pub time_secs: f64,
    /// Final route of every wire.
    pub routes: Vec<Route>,
    /// Processor that routed each wire in the final iteration.
    pub proc_of_wire: Vec<ProcId>,
    /// Aggregate routing work.
    pub work: WorkStats,
    /// Occupancy factor accumulated in each iteration.
    pub occupancy_by_iteration: Vec<u64>,
    /// Final shared cost-array state.
    pub cost: CostArray,
    /// The shared-reference trace, when collection was enabled.
    pub trace: Option<Trace>,
}

/// Evaluates a wire against the shared array, recording the sweep's reads
/// into the open burst.
type TracedEvaluation =
    fn(&CostArray, BurstWriter<'_>, &Wire, u16, &mut EvalScratch) -> WireEvaluation;

/// A cost-array view that records the read references of a candidate
/// sweep. A span, queried or only noted, is recorded as one run of
/// addresses, a row's one cell apart and a column's one row apart; a
/// query takes its sum from the [`CostArray`], and `cost_at` records the
/// single cells of VHV's side-by-side band. `as_array` returns the
/// array, so the HVH jog sweep sums the pin rows once and notes every
/// candidate's spans through `note_row` and `note_column`: the trace
/// holds every read in the order a cell-by-cell evaluator reads them,
/// while the host sums cost what an untraced run's do.
struct TracedView<'a> {
    cost: &'a CostArray,
    reads: RefCell<BurstWriter<'a>>,
}

impl TracedView<'_> {
    fn evaluate(
        cost: &CostArray,
        reads: BurstWriter<'_>,
        wire: &Wire,
        overshoot: u16,
        scratch: &mut EvalScratch,
    ) -> WireEvaluation {
        let view = TracedView { cost, reads: RefCell::new(reads) };
        route_wire_scratch(&view, wire, overshoot, scratch)
    }
}

impl CostView for TracedView<'_> {
    fn channels(&self) -> u16 {
        self.cost.channels()
    }
    fn grids(&self) -> u16 {
        self.cost.grids()
    }
    #[inline]
    fn cost_at(&self, cell: GridCell) -> u32 {
        self.reads.borrow_mut().push(cell_addr(cell.channel, cell.x, self.cost.grids()));
        self.cost.cost_at(cell)
    }
    #[inline]
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        self.note_row(channel, x_lo, x_hi);
        self.cost.horizontal_cost(channel, x_lo, x_hi)
    }
    #[inline]
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        self.note_column(x, c_lo, c_hi);
        self.cost.vertical_cost(x, c_lo, c_hi)
    }
    #[inline]
    fn note_row(&self, channel: u16, x_lo: u16, x_hi: u16) {
        let (grids, cells) = (self.cost.grids(), (usize::from(x_lo)..usize::from(x_hi) + 1).len());
        let (base, stride) = (cell_addr(channel, x_lo, grids), cell_addr(0, 1, grids));
        self.reads.borrow_mut().push_run(base, stride, cells);
    }
    #[inline]
    fn note_column(&self, x: u16, c_lo: u16, c_hi: u16) {
        let (grids, cells) = (self.cost.grids(), (usize::from(c_lo)..usize::from(c_hi) + 1).len());
        let (base, stride) = (cell_addr(c_lo, x, grids), cell_addr(1, 0, grids));
        self.reads.borrow_mut().push_run(base, stride, cells);
    }
    fn as_array(&self) -> Option<&CostArray> {
        Some(self.cost)
    }
}

/// Where a burst of references starts: when, by which processor, and for
/// which wire of which iteration.
#[derive(Clone, Copy)]
struct BurstSite {
    time: u64,
    proc: ProcId,
    iteration: usize,
    wire: WireId,
}

impl BurstSite {
    /// The burst's first reference (built for traced runs only: the
    /// record bounds the iteration count, and `validate` has checked it).
    fn first(self, kind: RefKind) -> MemRef {
        MemRef::new(self.time, self.proc as u32, 0, kind)
            .with_epoch(self.iteration as u32)
            .expect("validate() bounds the iterations of a traced run")
            .with_wire(self.wire as u32)
    }
}

/// Applies `delta` to every cell of a route, one store per `step_ns` from
/// `at.time` on, and records the stores as one critical burst. Returns the
/// time after the last store.
fn store_cells(
    shared: &mut CostArray,
    recorder: Option<&mut TraceRecorder>,
    cells: &[GridCell],
    delta: i8,
    at: BurstSite,
    step_ns: u64,
) -> u64 {
    for &cell in cells {
        shared.add(cell, delta.into());
    }
    if let Some(recorder) = recorder {
        let first =
            at.first(RefKind::Write).with_delta(delta).with_criticality(Criticality::Critical);
        let mut burst = recorder.begin(first, step_ns);
        for &cell in cells {
            burst.push(cell_addr(cell.channel, cell.x, shared.grids()));
        }
    }
    at.time + step_ns * cells.len() as u64
}

/// An in-flight wire: evaluated, not yet committed.
struct Pending {
    wire: WireId,
    eval: WireEvaluation,
    cost: u64,
    commit_at: u64,
}

struct ProcState {
    clock: u64,
    pending: Option<Pending>,
    queue_pos: usize,
    at_barrier: bool,
}

/// The emulator; see [module docs](self).
pub struct ShmemEmulator<'a> {
    circuit: &'a Circuit,
    config: ShmemConfig,
    obs: Obs,
}

impl<'a> ShmemEmulator<'a> {
    /// Creates an emulator.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; [`Self::try_new`] says so
    /// instead.
    pub fn new(circuit: &'a Circuit, config: ShmemConfig) -> Self {
        Self::try_new(circuit, config).expect("invalid shared-memory configuration")
    }

    /// Creates an emulator, or returns what `ShmemConfig::validate`
    /// finds wrong with `config`: on its own, as a split of `circuit`
    /// among the processors, or as an iteration count that could overflow
    /// the run's logical clock or work counters.
    pub fn try_new(circuit: &'a Circuit, config: ShmemConfig) -> Result<Self, String> {
        config.validate()?;
        config.check_surface(circuit)?;
        config.check_clock(circuit)?;
        Ok(ShmemEmulator { circuit, config, obs: Obs::off() })
    }

    /// Records emulation events (wire commits, rip-ups, iteration
    /// phases, stamped with logical-clock times) through `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs all iterations and returns the outcome.
    pub fn run(self) -> ShmemOutcome {
        self.run_with(TracedView::evaluate)
    }

    /// [`Self::run`], evaluating a traced run's wires with `traced`.
    fn run_with(self, traced: TracedEvaluation) -> ShmemOutcome {
        let ShmemEmulator { circuit, config, obs } = self;
        let n_procs = config.n_procs;
        let n_wires = circuit.wire_count();
        let cfg = &config;

        let static_lists = cfg.scheduling.static_lists(circuit, n_procs);

        let mut recorder = cfg.collect_trace.then(|| TraceRecorder::new(n_procs));

        let mut shared = CostArray::new(circuit.channels, circuit.grids);
        let mut driver = IterationDriver::default().with_obs(obs);
        let mut routes: Vec<Option<Route>> = vec![None; n_wires];
        let mut proc_of_wire: Vec<ProcId> = vec![0; n_wires];
        let mut procs: Vec<ProcState> = (0..n_procs)
            .map(|_| ProcState { clock: 0, pending: None, queue_pos: 0, at_barrier: false })
            .collect();
        // Logical processors are multiplexed on one OS thread, so one
        // scratch serves them all; a traced evaluation reads through
        // `TracedView`, which records every cell it reads.
        let mut scratch = EvalScratch::default();

        for iteration in 0..cfg.params.iterations {
            let last_iteration = iteration + 1 == cfg.params.iterations;
            let begin_at = procs.iter().map(|s| s.clock).min().unwrap_or(0);
            driver.on_node(0);
            driver.phase_begin(begin_at);
            let feed = WireFeed::new(n_wires, static_lists.as_deref());
            for p in procs.iter_mut() {
                p.queue_pos = 0;
                p.at_barrier = false;
            }

            loop {
                // Pick the processor with the earliest next event:
                // a pending commit, or a ready pick.
                let mut best: Option<(u64, ProcId)> = None;
                for (p, st) in procs.iter().enumerate() {
                    let key = match &st.pending {
                        Some(pend) => pend.commit_at,
                        None if !st.at_barrier => st.clock,
                        None => continue,
                    };
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, p));
                    }
                }
                let Some((_, p)) = best else {
                    break; // everyone is at the barrier
                };

                if let Some(pend) = procs[p].pending.take() {
                    // Commit: apply the increments the other processors
                    // could not see during evaluation.
                    let at =
                        BurstSite { time: pend.commit_at, proc: p, iteration, wire: pend.wire };
                    procs[p].clock = store_cells(
                        &mut shared,
                        recorder.as_mut(),
                        pend.eval.route.cells(),
                        1,
                        at,
                        CELL_WRITE_NS,
                    );
                    if last_iteration {
                        proc_of_wire[pend.wire] = p;
                    }
                    driver.on_node(p as u32);
                    routes[pend.wire] =
                        Some(driver.commit(pend.wire, pend.eval, pend.cost, pend.commit_at));
                    continue;
                }

                // Pick the next wire.
                let Some(wire_id) = feed.next(p, &mut procs[p].queue_pos) else {
                    procs[p].at_barrier = true;
                    continue;
                };
                procs[p].clock += DISPATCH_NS;

                // Rip up the previous route (§3), visible immediately.
                driver.on_node(p as u32);
                if let Some(old) = routes[wire_id].take() {
                    driver.rip_up(wire_id, &old, procs[p].clock);
                    let at = BurstSite { time: procs[p].clock, proc: p, iteration, wire: wire_id };
                    procs[p].clock = store_cells(
                        &mut shared,
                        recorder.as_mut(),
                        old.cells(),
                        -1,
                        at,
                        CELL_WRITE_NS,
                    );
                    scratch.recycle(old);
                }

                // Evaluate against the shared array as of this instant.
                let at = BurstSite { time: procs[p].clock, proc: p, iteration, wire: wire_id };
                let (wire, overshoot) = (circuit.wire(wire_id), cfg.params.channel_overshoot);
                let eval = match recorder.as_mut() {
                    Some(r) => {
                        let reads = r.begin(at.first(RefKind::Read), CELL_EVAL_NS);
                        traced(&shared, reads, wire, overshoot, &mut scratch)
                    }
                    None => route_wire_scratch(&shared, wire, overshoot, &mut scratch),
                };
                // Either span path counts each cell it costs once, one read
                // per CELL_EVAL_NS.
                let eval_end = at.time + eval.cells_examined * CELL_EVAL_NS;
                // Occupancy: the merged route's cost against the shared
                // array at decision time (uninstrumented read — the
                // metric is not part of the application's references).
                let cost_at_decision = shared.route_cost(&eval.route);
                procs[p].pending = Some(Pending {
                    wire: wire_id,
                    eval,
                    cost: cost_at_decision,
                    commit_at: eval_end,
                });
            }

            // Barrier: everyone waits for the slowest processor.
            let max_clock = procs.iter().map(|s| s.clock).max().unwrap_or(0);
            for st in procs.iter_mut() {
                st.clock = max_clock;
            }
            driver.on_node(0);
            driver.phase_end(max_clock);
            driver.close_iteration();
        }

        let completion = procs.iter().map(|s| s.clock).max().unwrap_or(0);
        let out = driver.finish(routes, shared);

        ShmemOutcome {
            quality: out.quality,
            time_secs: completion as f64 / 1e9,
            routes: out.routes,
            proc_of_wire,
            work: out.work,
            occupancy_by_iteration: out.occupancy_by_iteration,
            cost: out.cost,
            trace: recorder.map(TraceRecorder::finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheduling;
    use locus_circuit::presets;
    use locus_router::{AssignmentStrategy, RouterParams, SequentialRouter};

    #[test]
    fn single_processor_matches_sequential_router() {
        let c = presets::small();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(1)).run();
        let seq = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(out.quality, seq.quality, "P=1 emulation must equal the sequential run");
        assert_eq!(out.routes, seq.routes);
    }

    #[test]
    fn emulation_is_deterministic() {
        let c = presets::small();
        let a = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        let b = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.time_secs, b.time_secs);
    }

    #[test]
    fn conservation_of_coverage() {
        let c = presets::small();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        let mut truth = CostArray::new(c.channels, c.grids);
        for r in &out.routes {
            truth.add_route(r);
        }
        assert_eq!(truth.circuit_height(), out.quality.circuit_height);
        // The outcome's own array must agree with the replay.
        assert_eq!(out.cost.circuit_height(), out.quality.circuit_height);
    }

    #[test]
    fn more_processors_run_faster_but_route_worse_or_equal() {
        let c = presets::bnr_e();
        let p1 = ShmemEmulator::new(&c, ShmemConfig::new(1)).run();
        let p16 = ShmemEmulator::new(&c, ShmemConfig::new(16)).run();
        assert!(
            p16.time_secs < p1.time_secs / 4.0,
            "16 processors must be much faster: {} vs {}",
            p16.time_secs,
            p1.time_secs
        );
        assert!(
            p16.quality.circuit_height >= p1.quality.circuit_height,
            "staleness cannot improve quality: {} vs {}",
            p16.quality.circuit_height,
            p1.quality.circuit_height
        );
    }

    /// Both runs take the row-slice jog sweep, which queries no span: the
    /// traced view notes each jog's spans for the trace without summing
    /// them, so a traced run sums on the array exactly the row spans an
    /// untraced one sums (VHV's crossing rows). Both decide and charge
    /// the same.
    #[test]
    fn a_traced_run_sums_the_spans_an_untraced_run_sums() {
        let c = presets::small();
        let fast = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        let traced = ShmemEmulator::new(&c, ShmemConfig::new(4).with_trace()).run();
        let (fast_sums, traced_sums) =
            (fast.cost.prefix_stats().rebuilds, traced.cost.prefix_stats().rebuilds);
        assert!(fast_sums > 0);
        assert_eq!(traced_sums, fast_sums);
        assert_eq!(fast.routes, traced.routes);
        assert_eq!(fast.work, traced.work);
        assert_eq!(fast.time_secs, traced.time_secs);
    }

    /// The traced view before span queries were recorded as runs: every
    /// span read cell by cell through `cost_at`, one push a cell. The
    /// oracle of [`TracedView`].
    struct PerCellView<'a> {
        cost: &'a CostArray,
        reads: RefCell<BurstWriter<'a>>,
    }

    impl PerCellView<'_> {
        fn evaluate(
            cost: &CostArray,
            reads: BurstWriter<'_>,
            wire: &Wire,
            overshoot: u16,
            scratch: &mut EvalScratch,
        ) -> WireEvaluation {
            let view = PerCellView { cost, reads: RefCell::new(reads) };
            route_wire_scratch(&view, wire, overshoot, scratch)
        }
    }

    impl CostView for PerCellView<'_> {
        fn channels(&self) -> u16 {
            self.cost.channels()
        }
        fn grids(&self) -> u16 {
            self.cost.grids()
        }
        fn cost_at(&self, cell: GridCell) -> u32 {
            self.reads.borrow_mut().push(cell_addr(cell.channel, cell.x, self.cost.grids()));
            self.cost.cost_at(cell)
        }
    }

    #[test]
    fn span_runs_record_the_trace_the_per_cell_view_records() {
        let default_overshoot = RouterParams::default().channel_overshoot;
        for c in [presets::tiny(), presets::small(), presets::bnr_e()] {
            for procs in [1, 2, 4, 16] {
                for overshoot in [0, default_overshoot] {
                    let params = RouterParams::default().with_channel_overshoot(overshoot);
                    let cfg = ShmemConfig::new(procs).with_params(params).with_trace();
                    let spans = ShmemEmulator::new(&c, cfg).run();
                    let cells = ShmemEmulator::new(&c, cfg).run_with(PerCellView::evaluate);
                    let (spans, cells) =
                        (spans.trace.expect("traced"), cells.trace.expect("traced"));
                    let case =
                        format!("{}x{} at P={procs}, overshoot {overshoot}", c.channels, c.grids);
                    assert_eq!(spans.len(), cells.len(), "{case}");
                    let first_apart = spans.refs().zip(cells.refs()).position(|(a, b)| a != b);
                    assert_eq!(first_apart, None, "{case}: the traces part at this reference");
                }
            }
        }
    }

    /// ROADMAP item 2's traced case: a wire that spans W grids costs its
    /// traced sweep about W² reads, since every jog column's two rows are
    /// recorded span by span, but each span is one run of the trace, so
    /// the record grows with the spans. The host sums stay linear in W:
    /// the traced run sums on the array what an untraced run sums. Two
    /// corner wires across 2 × 1024.
    #[test]
    fn a_traced_wide_surface_records_its_square_of_reads() {
        let pin = locus_circuit::Pin::new;
        let wires = vec![
            Wire::new(0, vec![pin(0, 0), pin(1, 1023)]),
            Wire::new(1, vec![pin(1, 0), pin(0, 1023)]),
        ];
        let c = Circuit::new("wide", 2, 1024, wires).expect("inside the budget");
        let out = ShmemEmulator::new(&c, ShmemConfig::new(2).with_trace()).run();
        let fast = ShmemEmulator::new(&c, ShmemConfig::new(2)).run();
        assert_eq!(out.cost.prefix_stats().rebuilds, fast.cost.prefix_stats().rebuilds);
        let trace = out.trace.expect("traced");
        assert_eq!(trace.len(), 4_212_750);
        assert_eq!(trace.write_count() as u64, out.work.cells_written);
        assert_eq!((trace.len() - trace.write_count()) as u64, out.work.cells_examined);
    }

    #[test]
    fn trace_collection_records_reads_and_writes() {
        let c = presets::tiny();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(2).with_trace()).run();
        let trace = out.trace.expect("trace requested");
        assert!(trace.refs().map(|r| r.time).is_sorted());
        assert!(trace.len() as u64 >= out.work.cells_examined);
        let writes = trace.write_count();
        assert_eq!(writes as u64, out.work.cells_written);
        // Addresses must stay within the shared cost array.
        let max_addr = (c.channels as u32 * c.grids as u32) * 2;
        assert!(trace.refs().all(|r| r.addr < max_addr));
    }

    #[test]
    fn trace_tags_stores_critical_and_sweep_reads_background() {
        let c = presets::tiny();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(2).with_trace()).run();
        let trace = out.trace.expect("trace requested");
        for r in trace.refs() {
            match r.kind {
                RefKind::Write => {
                    assert!(r.is_critical(), "rip-up/commit stores are critical");
                    assert_ne!(r.delta, 0, "every store carries its signed delta");
                }
                RefKind::Read => assert!(!r.is_critical(), "sweep reads are background"),
            }
        }
    }

    #[test]
    fn merged_trace_keeps_time_order_and_every_processors_program_order() {
        let c = presets::small();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(4).with_trace()).run();
        let trace = out.trace.expect("trace requested");
        assert!(trace.refs().map(|r| r.time).is_sorted());
        assert_eq!(trace.write_count() as u64, out.work.cells_written);
        assert_eq!((trace.len() - trace.write_count()) as u64, out.work.cells_examined);
        // Per processor: time never runs backwards, and each wire is a
        // rip-up (stores of -1), then the sweep's reads, then the commit
        // (stores of +1), finished before the next wire starts.
        let stage = |r: &MemRef| match (r.kind, r.delta) {
            (RefKind::Write, -1) => 0,
            (RefKind::Read, 0) => 1,
            (RefKind::Write, 1) => 2,
            other => panic!("unexpected reference {other:?}"),
        };
        for p in 0..4 {
            let own: Vec<MemRef> = trace.refs().filter(|r| r.proc == p).collect();
            assert!(!own.is_empty(), "processor {p} routed nothing");
            for pair in own.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert!(a.time <= b.time && a.epoch <= b.epoch);
                if (a.wire, a.epoch) == (b.wire, b.epoch) {
                    assert!(stage(a) <= stage(b), "wire {} went backwards: {a:?} {b:?}", a.wire);
                } else {
                    assert_eq!(stage(a), 2, "a wire ends with its commit: {a:?}");
                    assert!(stage(b) < 2, "the next starts with a rip-up or a sweep: {b:?}");
                }
            }
        }
    }

    #[test]
    fn a_traced_run_of_more_iterations_than_a_record_numbers_is_an_error() {
        let c = presets::tiny();
        let long = RouterParams::default().with_iterations(MemRef::MAX_EPOCHS + 1);
        let cfg = ShmemConfig::new(2).with_params(long).with_trace();
        let err = ShmemEmulator::try_new(&c, cfg).err().expect("257 iterations, traced");
        assert!(err.contains("257"), "{err}");
        let absurd = RouterParams { iterations: usize::MAX, ..long };
        assert!(ShmemEmulator::try_new(&c, cfg.with_params(absurd)).is_err());
        // The last epoch a record can number is recorded as itself.
        let full = RouterParams::default().with_iterations(MemRef::MAX_EPOCHS);
        let out = ShmemEmulator::try_new(&c, cfg.with_params(full)).expect("256 fit").run();
        assert_eq!(out.trace.expect("traced").refs().last().map(|r| r.epoch), Some(255));
    }

    #[test]
    fn a_timing_that_would_wrap_the_clock_is_an_error_traced_or_not() {
        // Once a debug overflow panic in `cost_at`, a wrapped `time_secs`
        // untraced, and a clock "running backwards" in the recorder.
        let c = presets::tiny();
        let long = RouterParams::default().with_iterations(1 << 40);
        for cfg in [ShmemConfig::new(2), ShmemConfig::new(2).with_trace()] {
            let err = ShmemEmulator::try_new(&c, cfg.with_params(long)).err().expect("2^40 rounds");
            assert!(err.contains("iterations"), "{err}");
        }
    }

    #[test]
    fn no_trace_by_default() {
        let c = presets::tiny();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(2)).run();
        assert!(out.trace.is_none());
    }

    #[test]
    fn static_assignment_routes_every_wire() {
        let c = presets::small();
        let cfg = ShmemConfig::new(4)
            .with_static_assignment(AssignmentStrategy::Locality { threshold_cost: Some(30) });
        let out = ShmemEmulator::new(&c, cfg).run();
        assert_eq!(out.routes.len(), c.wire_count());
        let mut truth = CostArray::new(c.channels, c.grids);
        for r in &out.routes {
            truth.add_route(r);
        }
        assert_eq!(truth.circuit_height(), out.quality.circuit_height);
    }

    #[test]
    fn proc_of_wire_is_populated_for_static_runs() {
        let c = presets::small();
        let cfg = ShmemConfig::new(4).with_static_assignment(AssignmentStrategy::RoundRobin);
        let out = ShmemEmulator::new(&c, cfg).run();
        // Round robin: wire i routed by proc i mod 4 in every iteration.
        for (w, &p) in out.proc_of_wire.iter().enumerate() {
            assert_eq!(p, w % 4);
        }
    }

    #[test]
    fn sink_observes_every_commit_and_ripup() {
        use locus_obs::SharedSink;
        let c = presets::small();
        let sink = SharedSink::new();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(4)).with_obs(Obs::to(&sink)).run();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("wires_routed"), out.work.wires_routed);
        // Iterations ≥ 2, so every wire from iteration 1 is ripped up.
        assert!(m.counter("rip_ups") > 0);
        assert_eq!(m.counter("phases_begun"), ShmemConfig::new(4).params.iterations as u64);
        assert_eq!(m.counter("phases_begun"), m.counter("phases_ended"));
    }

    #[test]
    fn occupancy_positive_on_contended_circuit() {
        let c = presets::small();
        let out = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        assert!(out.quality.occupancy_factor > 0);
        // Every iteration's occupancy is recorded; the last is reported.
        assert_eq!(out.occupancy_by_iteration.len(), ShmemConfig::new(4).params.iterations);
        assert_eq!(out.quality.occupancy_factor, *out.occupancy_by_iteration.last().unwrap());
    }

    #[test]
    fn static_lists_resolution_matches_scheduling() {
        let c = presets::small();
        assert!(Scheduling::DynamicLoop.static_lists(&c, 4).is_none());
        let lists = Scheduling::Static(AssignmentStrategy::RoundRobin)
            .static_lists(&c, 4)
            .expect("static lists");
        assert_eq!(lists.len(), 4);
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), c.wire_count());
    }
}
