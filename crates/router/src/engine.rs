//! The shared execution core behind every routing engine.
//!
//! The paper's whole point is that message passing and shared memory are
//! two implementations of *one* router, so the loop that routes a wire —
//! rip up the previous route, evaluate candidates, commit the winner,
//! account the work, emit the observability events — must exist exactly
//! once. This module owns that loop's bookkeeping:
//!
//! * [`IterationDriver`] — per-engine (or per message-passing node)
//!   ledger of routes, work counters, per-iteration occupancy, and the
//!   `PhaseBegin`/`RipUp`/`WireRouted`/`PhaseEnd`/`KernelStats` event
//!   emission that used to be copy-pasted across the four engines;
//! * [`WireFeed`] — one iteration's wire supply (the §3 distributed-loop
//!   shared counter or a §4.2 static assignment), shared by the
//!   shared-memory emulator and the real threaded executor;
//! * [`EngineRun`] — the one result type every entry of the facade's
//!   engine table returns.
//!
//! Engines keep what genuinely differs between paradigms — memory
//! semantics (global array, unlocked atomics, stale replicas), clocks,
//! and scheduling — and delegate everything else here.

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

/// The shared route-wire / rip-up / per-iteration-metrics ledger.
///
/// One driver serves one stream of routing decisions: the whole run for
/// the sequential router and the shared-memory engines (slots indexed by
/// global wire id), or one processor's slice for a message-passing node
/// (slots indexed by position in its static wire list). The driver owns
/// the route slots, the [`WorkStats`] ledger, per-iteration occupancy
/// accounting, and all routing-event emission; the engine keeps memory
/// semantics, clocks, and scheduling.
pub struct IterationDriver {
    obs: Obs,
    routes: Vec<Option<Route>>,
    /// Routes committed outside the static slots (§4.2 dynamic wire
    /// distribution, where a node routes whatever it is granted).
    dynamic: Vec<(WireId, Route)>,
    work: WorkStats,
    occupancy_current: u64,
    occupancy_by_iteration: Vec<u64>,
    /// Connections evaluated through the per-cell span fallback (kept out
    /// of [`WorkStats`] so work ledgers stay comparable across engines
    /// whose span paths legitimately differ).
    percell_evals: u64,
    /// Whether the one-time `PercellFallback` event has been emitted.
    percell_flagged: bool,
}

impl IterationDriver {
    /// A driver with `slots` route slots and observability off.
    pub fn new(slots: usize) -> Self {
        IterationDriver {
            obs: Obs::off(),
            routes: vec![None; slots],
            dynamic: Vec::new(),
            work: WorkStats::default(),
            occupancy_current: 0,
            occupancy_by_iteration: Vec::new(),
            percell_evals: 0,
            percell_flagged: false,
        }
    }

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

    /// Takes the previous route out of `slot` for re-routing, accounting
    /// the rip-up writes and emitting the `RipUp` event. The caller
    /// applies the decrements to whatever array it owns.
    pub fn rip_up(&mut self, slot: usize, wire: WireId, at_ns: u64) -> Option<Route> {
        let old = self.routes[slot].take()?;
        self.rip_up_external(wire, &old, at_ns);
        Some(old)
    }

    /// [`rip_up`](Self::rip_up) for a route stored outside the driver
    /// (engines whose slots are shared across threads): accounts the
    /// writes and emits the event for a route the caller already took.
    pub fn rip_up_external(&mut self, wire: WireId, old: &Route, at_ns: u64) {
        self.work.cells_written += old.len() as u64;
        self.obs.emit(at_ns, EventKind::RipUp { wire: wire as u32, cells: old.len() as u32 });
    }

    fn account(&mut self, eval: &WireEvaluation, cost_at_decision: u64) {
        self.work.wires_routed += 1;
        self.work.connections += eval.connections;
        self.work.candidates += eval.candidates;
        self.work.cells_examined += eval.cells_examined;
        self.work.cells_written += eval.route.len() as u64;
        self.occupancy_current += cost_at_decision;
    }

    /// Commits `eval` into `slot`: accounts the work and occupancy,
    /// emits the `WireRouted` event, and stores the route. The caller
    /// has already applied the route to its array; `cost_at_decision` is
    /// the route's cost against the state the occupancy metric reads
    /// (§3 — each engine defines which state that is).
    pub fn commit(
        &mut self,
        slot: usize,
        wire: WireId,
        eval: WireEvaluation,
        cost_at_decision: u64,
        at_ns: u64,
    ) {
        let route = self.commit_external(wire, eval, cost_at_decision, at_ns);
        self.routes[slot] = Some(route);
    }

    /// [`commit`](Self::commit) for a dynamically granted wire with no
    /// static slot; the route is appended to the dynamic ledger.
    pub fn commit_dynamic(
        &mut self,
        wire: WireId,
        eval: WireEvaluation,
        cost_at_decision: u64,
        at_ns: u64,
    ) {
        let route = self.commit_external(wire, eval, cost_at_decision, at_ns);
        self.dynamic.push((wire, route));
    }

    /// [`commit`](Self::commit) for a route stored outside the driver:
    /// accounts the work and occupancy, emits the event, and hands the
    /// route back for the caller to store.
    pub fn commit_external(
        &mut self,
        wire: WireId,
        eval: WireEvaluation,
        cost_at_decision: u64,
        at_ns: u64,
    ) -> Route {
        if eval.percell_evals > 0 {
            self.percell_evals += eval.percell_evals;
            if !self.percell_flagged {
                // One event per run: a traced/per-cell run announces itself
                // the first time an evaluation skips the span kernel.
                self.percell_flagged = true;
                self.obs.emit(at_ns, EventKind::PercellFallback { wire: wire as u32 });
            }
        }
        self.account(&eval, cost_at_decision);
        self.obs.emit(
            at_ns,
            EventKind::WireRouted { wire: wire as u32, cells: eval.route.len() as u32 },
        );
        eval.route
    }

    /// Emits the end-of-run `KernelStats` event with this driver's
    /// candidate and per-cell evaluation totals.
    pub fn kernel_stats(&mut self, at_ns: u64) {
        self.obs.emit(
            at_ns,
            EventKind::KernelStats {
                candidates: self.work.candidates,
                percell_evals: self.percell_evals,
            },
        );
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

    /// Occupancy factor of the last sealed iteration (the reported one).
    pub fn last_occupancy(&self) -> u64 {
        self.occupancy_by_iteration.last().copied().unwrap_or(0)
    }

    /// Takes every route out of the driver: the static slots, and what
    /// was committed through the dynamic (slotless) path.
    pub fn take_routes(&mut self) -> (Vec<Option<Route>>, Vec<(WireId, Route)>) {
        (std::mem::take(&mut self.routes), std::mem::take(&mut self.dynamic))
    }

    /// Drains the driver into a [`RouteOutcome`] over `cost` (the
    /// engine's final array). Every slot must hold a route.
    ///
    /// # Panics
    /// Panics if any slot is empty.
    pub fn finish(self, cost: CostArray) -> RouteOutcome {
        let routes: Vec<Route> =
            self.routes.into_iter().map(|r| r.expect("every wire routed")).collect();
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
    /// True when the run needed a watchdog or recovery intervention to
    /// finish (e.g. a message-passing deadlock break or node failover);
    /// the result is usable but earned under duress.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_array::CostView;
    use locus_circuit::presets;
    use locus_obs::{names, SharedSink};

    #[test]
    fn driver_ledger_tracks_commits_and_ripups() {
        let c = presets::tiny();
        let mut cost = CostArray::new(c.channels, c.grids);
        let mut driver = IterationDriver::new(c.wire_count());
        let mut scratch = crate::router::EvalScratch::default();
        for iteration in 0..2 {
            for wire in &c.wires {
                if let Some(old) = driver.rip_up(wire.id, wire.id, 0) {
                    cost.remove_route(&old);
                }
                let eval = crate::router::route_wire_scratch(&cost, wire, 1, &mut scratch);
                let at_decision = cost.route_cost(&eval.route);
                cost.add_route(&eval.route);
                driver.commit(wire.id, wire.id, eval, at_decision, 0);
            }
            driver.close_iteration();
            assert_eq!(driver.occupancy_by_iteration().len(), iteration + 1);
        }
        assert_eq!(driver.work().wires_routed, 2 * c.wire_count() as u64);
        let out = driver.finish(cost);
        assert_eq!(out.routes.len(), c.wire_count());
        assert_eq!(out.quality.occupancy_factor, out.occupancy_by_iteration[1]);
    }

    #[test]
    fn driver_emits_phase_and_wire_events() {
        let c = presets::tiny();
        let sink = SharedSink::new();
        let mut driver = IterationDriver::new(c.wire_count()).with_obs(Obs::to(&sink));
        driver.phase_begin(0);
        let mut cost = CostArray::new(c.channels, c.grids);
        let mut scratch = crate::router::EvalScratch::default();
        let eval = crate::router::route_wire_scratch(&cost, &c.wires[0], 1, &mut scratch);
        cost.add_route(&eval.route);
        driver.commit(0, 0, eval, 0, 5);
        driver.phase_end(10);
        driver.close_iteration();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter(names::PHASES_BEGUN), 1);
        assert_eq!(m.counter(names::PHASES_ENDED), 1);
        assert_eq!(m.counter(names::WIRES_ROUTED), 1);
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
