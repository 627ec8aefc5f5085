//! The shared execution core behind every routing engine.
//!
//! The paper's whole point is that message passing and shared memory are
//! two implementations of *one* router, so the loop that routes a wire —
//! rip up the previous route, evaluate candidates, commit the winner,
//! account the work, emit the observability events — must exist exactly
//! once. This module owns that loop's bookkeeping:
//!
//! * [`IterationDriver`] — per-engine (or per thread, or per
//!   message-passing node) ledger of work counters and per-iteration
//!   occupancy, and the `PhaseBegin`/`RipUp`/`WireRouted`/`PhaseEnd`
//!   event emission that used to be copy-pasted across the four engines;
//! * [`WireFeed`] — one iteration's wire supply (the §3 distributed-loop
//!   shared counter or a §4.2 static assignment), shared by the
//!   shared-memory emulator and the real threaded executor;
//! * [`EngineRun`] — the one result type every entry of the facade's
//!   engine table returns.
//!
//! Engines keep what genuinely differs between paradigms — memory
//! semantics (global array, unlocked atomics, stale replicas), where the
//! routes live, clocks, and scheduling — and delegate everything else
//! here.

// Audited atomics (clippy.toml): `WireFeed`'s distributed-loop counter,
// one relaxed `fetch_add` that publishes nothing but the index it returns.
#![expect(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};

use locus_circuit::WireId;
use locus_obs::{EventKind, Obs};

use crate::cost_array::CostArray;
use crate::quality::QualityMetrics;
use crate::route::Route;
use crate::router::{RouteOutcome, WireEvaluation};
use crate::work::WorkStats;

/// The shared rip-up / commit / per-iteration-metrics ledger.
///
/// One driver serves one stream of routing decisions: the whole run for
/// the sequential router and the emulator, one thread of the threaded
/// router, or one message-passing node. It keeps the [`WorkStats`]
/// ledger, per-iteration occupancy, and all routing-event emission.
/// The routes stay with the engine, where their storage means something:
/// a slot per wire id, a mutex per wire shared by threads, or a node's
/// static slots beside the wires it was granted or adopted.
#[derive(Default)]
pub struct IterationDriver {
    obs: Obs,
    work: WorkStats,
    occupancy_current: u64,
    occupancy_by_iteration: Vec<u64>,
}

impl IterationDriver {
    /// Returns `self` recording routing events through `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attributes subsequent events to `node` (multiplexing engines set
    /// this to the acting logical processor before each step).
    #[inline]
    pub fn on_node(&mut self, node: u32) {
        self.obs.set_node(node);
    }

    /// Emits `PhaseBegin { "iteration" }`.
    pub fn phase_begin(&mut self, at_ns: u64) {
        self.obs.emit(at_ns, EventKind::PhaseBegin { name: "iteration" });
    }

    /// Emits `PhaseEnd { "iteration" }`.
    pub fn phase_end(&mut self, at_ns: u64) {
        self.obs.emit(at_ns, EventKind::PhaseEnd { name: "iteration" });
    }

    /// Seals the current iteration: records its accumulated occupancy
    /// factor and resets the accumulator for the next iteration.
    pub fn close_iteration(&mut self) {
        self.occupancy_by_iteration.push(self.occupancy_current);
        self.occupancy_current = 0;
    }

    /// Accounts the rip-up of `wire`'s previous route `old`, which the
    /// caller took out of its own storage, and emits the `RipUp` event.
    /// The caller applies the decrements to whatever array it owns.
    pub fn rip_up(&mut self, wire: WireId, old: &Route, at_ns: u64) {
        self.work.cells_written += old.len() as u64;
        self.obs.emit(at_ns, EventKind::RipUp { wire: wire as u32, cells: old.len() as u32 });
    }

    /// Accounts the commit of `eval` for `wire` (work and occupancy),
    /// emits the `WireRouted` event, and hands the route back for the
    /// caller to store. The caller has already applied the route to its
    /// array; `cost_at_decision` is the route's cost against the state
    /// the occupancy metric reads (§3 — each engine defines which state
    /// that is).
    pub fn commit(
        &mut self,
        wire: WireId,
        eval: WireEvaluation,
        cost_at_decision: u64,
        at_ns: u64,
    ) -> Route {
        self.work.wires_routed += 1;
        self.work.connections += eval.connections;
        self.work.candidates += eval.candidates;
        self.work.cells_examined += eval.cells_examined;
        self.work.cells_written += eval.route.len() as u64;
        self.occupancy_current += cost_at_decision;
        self.obs.emit(
            at_ns,
            EventKind::WireRouted { wire: wire as u32, cells: eval.route.len() as u32 },
        );
        eval.route
    }

    /// Emits an arbitrary engine-specific event (e.g. a replica audit)
    /// through this driver's emitter at `at_ns`.
    pub fn emit_event(&mut self, at_ns: u64, kind: EventKind) {
        self.obs.emit(at_ns, kind);
    }

    /// Work performed so far.
    pub fn work(&self) -> &WorkStats {
        &self.work
    }

    /// Occupancy factor of each sealed iteration.
    pub fn occupancy_by_iteration(&self) -> &[u64] {
        &self.occupancy_by_iteration
    }

    /// Drains the driver into a [`RouteOutcome`] over the engine's final
    /// `routes` (indexed by wire id) and array `cost`.
    ///
    /// # Panics
    /// Panics if any wire has no route.
    pub fn finish(self, routes: Vec<Option<Route>>, cost: CostArray) -> RouteOutcome {
        let routes: Vec<Route> =
            routes.into_iter().map(|r| r.expect("every wire routed")).collect();
        let occupancy_by_iteration = self.occupancy_by_iteration;
        let quality = QualityMetrics::from_final_state(
            &cost,
            occupancy_by_iteration.last().copied().unwrap_or(0),
        );
        RouteOutcome { quality, work: self.work, routes, cost, occupancy_by_iteration }
    }
}

/// One iteration's wire supply, shared by the shared-memory engines: the
/// §3 "distributed loop" (a shared counter handing the next wire to
/// whichever processor asks first) or a §4.2 static assignment walked by
/// a per-processor cursor. Thread-safe, so the emulator's multiplexed
/// logical processors and the threaded executor's OS threads use the
/// same supply.
pub struct WireFeed<'a> {
    next: AtomicUsize,
    n_wires: usize,
    lists: Option<&'a [Vec<WireId>]>,
}

impl<'a> WireFeed<'a> {
    /// A supply over `n_wires` wires; `lists` selects static assignment.
    pub fn new(n_wires: usize, lists: Option<&'a [Vec<WireId>]>) -> Self {
        WireFeed { next: AtomicUsize::new(0), n_wires, lists }
    }

    /// The next wire for `proc`, advancing its `cursor` (only used under
    /// static assignment); `None` when the supply is exhausted.
    pub fn next(&self, proc: usize, cursor: &mut usize) -> Option<WireId> {
        match self.lists {
            None => {
                let w = self.next.fetch_add(1, Ordering::Relaxed);
                (w < self.n_wires).then_some(w)
            }
            Some(lists) => {
                let w = lists[proc].get(*cursor).copied();
                if w.is_some() {
                    *cursor += 1;
                }
                w
            }
        }
    }
}

/// The uniform result of running any engine: the core routing outcome
/// plus the paradigm-level measures engines with a clock or a network
/// can report.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Routes, quality, work, and per-iteration occupancy.
    pub outcome: RouteOutcome,
    /// Paradigm traffic in megabytes, when measured: bus megabytes for
    /// shared memory (a traced run), payload megabytes for message
    /// passing.
    pub mbytes: Option<f64>,
    /// Modelled (simulated) or wall-clock seconds, when the engine has a
    /// clock; the sequential engine has none.
    pub time_secs: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;
    use locus_obs::SharedSink;

    #[test]
    fn driver_ledger_tracks_commits_and_ripups() {
        let c = presets::tiny();
        let mut cost = CostArray::new(c.channels, c.grids);
        let mut driver = IterationDriver::default();
        let mut routes: Vec<Option<Route>> = vec![None; c.wire_count()];
        let mut scratch = crate::router::EvalScratch::default();
        for iteration in 0..2 {
            for wire in &c.wires {
                if let Some(old) = routes[wire.id].take() {
                    driver.rip_up(wire.id, &old, 0);
                    cost.remove_route(&old);
                    scratch.recycle(old);
                }
                let eval = crate::router::route_wire_scratch(&cost, wire, 1, &mut scratch);
                let at_decision = cost.commit_route(&eval.route);
                routes[wire.id] = Some(driver.commit(wire.id, eval, at_decision, 0));
            }
            driver.close_iteration();
            assert_eq!(driver.occupancy_by_iteration().len(), iteration + 1);
        }
        let work = *driver.work();
        assert_eq!(work.wires_routed, 2 * c.wire_count() as u64);
        // Every cell a route covered was written by its commit, and the
        // first iteration's routes once more by their rip-up.
        let final_cells: u64 = routes.iter().flatten().map(|r| r.len() as u64).sum();
        assert!(work.cells_written > final_cells);
        let out = driver.finish(routes, cost);
        assert_eq!(out.routes.len(), c.wire_count());
        assert_eq!(out.cost.total(), final_cells);
        assert_eq!(out.quality.occupancy_factor, out.occupancy_by_iteration[1]);
    }

    #[test]
    fn driver_emits_phase_and_wire_events() {
        let c = presets::tiny();
        let sink = SharedSink::new();
        let mut driver = IterationDriver::default().with_obs(Obs::to(&sink));
        driver.phase_begin(0);
        let mut cost = CostArray::new(c.channels, c.grids);
        let mut scratch = crate::router::EvalScratch::default();
        let eval = crate::router::route_wire_scratch(&cost, &c.wires[0], 1, &mut scratch);
        cost.add_route(&eval.route);
        let route = driver.commit(0, eval, 0, 5);
        driver.rip_up(0, &route, 7);
        driver.phase_end(10);
        driver.close_iteration();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("phases_begun"), 1);
        assert_eq!(m.counter("phases_ended"), 1);
        assert_eq!(m.counter("wires_routed"), 1);
        assert_eq!(m.counter("rip_ups"), 1);
        let times: Vec<u64> = sink.snapshot_events().iter().map(|e| e.at_ns).collect();
        assert_eq!(times, [0, 5, 7, 10]);
    }

    #[test]
    fn wire_feed_distributed_loop_hands_each_wire_once() {
        let feed = WireFeed::new(5, None);
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(w) = feed.next(0, &mut cursor) {
            seen.push(w);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(feed.next(1, &mut cursor), None);
    }

    #[test]
    fn wire_feed_static_lists_walk_per_proc() {
        let lists = vec![vec![3usize, 1], vec![0, 2, 4]];
        let feed = WireFeed::new(5, Some(&lists));
        let mut c0 = 0;
        let mut c1 = 0;
        assert_eq!(feed.next(0, &mut c0), Some(3));
        assert_eq!(feed.next(1, &mut c1), Some(0));
        assert_eq!(feed.next(0, &mut c0), Some(1));
        assert_eq!(feed.next(0, &mut c0), None);
        assert_eq!(feed.next(1, &mut c1), Some(2));
        assert_eq!(feed.next(1, &mut c1), Some(4));
        assert_eq!(feed.next(1, &mut c1), None);
    }
}
