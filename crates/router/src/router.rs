//! The reference sequential router and the shared per-wire routing step.

use locus_circuit::{Circuit, Pin, Wire};

use crate::cost_array::{CostArray, CostView};
use crate::engine::IterationDriver;
use crate::params::RouterParams;
use crate::quality::QualityMetrics;
use crate::route::Route;
use crate::segment::{decompose_into, Connection};
use crate::twobend::{best_route_into, max_cover, MAX_SEGMENTS};
use crate::work::WorkStats;

/// Result of evaluating one wire against a cost view (without mutating it).
#[derive(Clone, Debug)]
pub struct WireEvaluation {
    /// The union route over all of the wire's two-pin connections.
    pub route: Route,
    /// Sum of the connections' path costs at evaluation time — the wire's
    /// contribution to the occupancy factor.
    pub cost: u64,
    /// Candidate routes examined.
    pub candidates: u64,
    /// Cost-array cells examined.
    pub cells_examined: u64,
    /// Number of two-pin connections.
    pub connections: u64,
}

/// Routes `wire` against `view`: decomposes it into two-pin connections,
/// picks the best two-bend route for each, and merges them into one
/// deduplicated route.
///
/// The caller is responsible for applying the result to whatever array it
/// owns — the sequential router to the global array, a message-passing
/// node to its replica and delta array, the shared-memory emulator to the
/// (instrumented) shared array.
pub fn route_wire<V: CostView + ?Sized>(view: &V, wire: &Wire, overshoot: u16) -> WireEvaluation {
    route_wire_scratch(view, wire, overshoot, &mut EvalScratch::default())
}

/// Reusable buffers for the routing kernel. Hold one per routing thread
/// (or per message-passing node) and pass it to [`route_wire_scratch`],
/// and hand each ripped-up route back with [`EvalScratch::recycle`]: once
/// the buffers reach steady-state capacity, routing a wire allocates
/// nothing.
#[derive(Default)]
pub struct EvalScratch {
    pins: Vec<Pin>,
    connections: Vec<Connection>,
    /// The winning route's row runs, packed as [`Route`] sorts them.
    runs: Vec<u64>,
    /// A route handed back, whose buffers the next winner is built in.
    spare: Option<Route>,
}

impl EvalScratch {
    /// Hands back a route the caller no longer keeps (a ripped-up one), so
    /// the next [`route_wire_scratch`] builds its winner in its buffers.
    pub fn recycle(&mut self, route: Route) {
        self.spare = Some(route);
    }
}

/// [`route_wire`] with caller-provided scratch buffers; see
/// [`EvalScratch`]. Candidate evaluation allocates nothing, and the
/// winning route is built in the spare route's buffers when there is one.
pub fn route_wire_scratch<V: CostView + ?Sized>(
    view: &V,
    wire: &Wire,
    overshoot: u16,
    scratch: &mut EvalScratch,
) -> WireEvaluation {
    let EvalScratch { pins, connections, runs, spare } = scratch;
    decompose_into(wire, pins, connections);
    // The winner is built in the spare's buffers, with room for the widest
    // route the wire can take, so a wire re-routed in its own ripped-up
    // route's buffers never grows them.
    let (mut segments, mut cells) = spare.take().map(Route::into_buffers).unwrap_or_default();
    segments.clear();
    segments.reserve_exact(MAX_SEGMENTS * connections.len());
    let mut cost = 0u64;
    let mut candidates = 0u64;
    let mut cells_examined = 0u64;
    let mut cover = 0usize;
    for &conn in connections.iter() {
        let core = best_route_into(view, conn, overshoot, &mut segments);
        cost += core.cost;
        candidates += core.candidates as u64;
        cells_examined += core.cells_examined;
        cover += max_cover(conn, overshoot);
    }
    cells.clear();
    cells.reserve_exact(cover);
    WireEvaluation {
        route: Route::build(segments, cells, runs),
        cost,
        candidates,
        cells_examined,
        connections: connections.len() as u64,
    }
}

/// Outcome of a complete routing run.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Final quality measures.
    pub quality: QualityMetrics,
    /// Work performed.
    pub work: WorkStats,
    /// The final route of every wire (indexed by wire id).
    pub routes: Vec<Route>,
    /// Final cost-array state.
    pub cost: CostArray,
    /// Occupancy factor accumulated in each iteration (the last entry is
    /// the reported occupancy factor).
    pub occupancy_by_iteration: Vec<u64>,
}

/// Single-processor LocusRoute: the algorithm of §3 with no concurrency.
///
/// Serves as the quality baseline (equivalent to a 1-processor run of
/// either parallel version, which see the cost array with perfect
/// consistency) and as the reference implementation the parallel versions
/// are tested against.
pub struct SequentialRouter<'a> {
    circuit: &'a Circuit,
    params: RouterParams,
}

impl<'a> SequentialRouter<'a> {
    /// Creates a router over `circuit`.
    ///
    /// # Panics
    /// Panics if `params` are invalid; [`RouterParams::validate`] says
    /// why.
    pub fn new(circuit: &'a Circuit, params: RouterParams) -> Self {
        params.validate().expect("invalid router parameters");
        SequentialRouter { circuit, params }
    }

    /// Runs all iterations and returns the outcome.
    pub fn run(self) -> RouteOutcome {
        let SequentialRouter { circuit, params } = self;
        let mut cost = CostArray::new(circuit.channels, circuit.grids);
        // The sequential algorithm has no clock and records no events, so
        // every stamp is 0.
        let mut driver = IterationDriver::default();
        let mut routes: Vec<Option<Route>> = vec![None; circuit.wire_count()];
        let mut scratch = EvalScratch::default();

        for _iteration in 0..params.iterations {
            for wire in &circuit.wires {
                // Rip up the previous route before re-routing (§3).
                if let Some(old) = routes[wire.id].take() {
                    driver.rip_up(wire.id, &old, 0);
                    cost.remove_route(&old);
                    scratch.recycle(old);
                }
                let eval = route_wire_scratch(&cost, wire, params.channel_overshoot, &mut scratch);
                // Occupancy: the merged route's cost at routing time (§3),
                // read as the route is written. Using the merged route
                // (not the per-connection sum) counts overlap cells once,
                // matching the parallel engines' definition exactly.
                let at_decision = cost.commit_route(&eval.route);
                routes[wire.id] = Some(driver.commit(wire.id, eval, at_decision, 0));
            }
            driver.close_iteration();
        }
        driver.finish(routes, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    #[test]
    fn routes_every_wire_and_conserves_coverage() {
        let c = presets::tiny();
        let out = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(out.routes.len(), c.wire_count());
        let coverage: u64 = out.routes.iter().map(|r| r.len() as u64).sum();
        assert_eq!(out.cost.total(), coverage, "cost array must equal sum of final routes");
    }

    #[test]
    fn deterministic_across_runs() {
        let c = presets::small();
        let a = SequentialRouter::new(&c, RouterParams::default()).run();
        let b = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.routes, b.routes);
    }

    #[test]
    fn iterations_do_not_hurt_quality_much() {
        let c = presets::small();
        let one = SequentialRouter::new(&c, RouterParams::default().with_iterations(1)).run();
        let four = SequentialRouter::new(&c, RouterParams::default().with_iterations(4)).run();
        // Re-routing against a populated array should improve (or at worst
        // roughly preserve) circuit height — §3's motivation for iterating.
        assert!(
            four.quality.circuit_height <= one.quality.circuit_height,
            "4 iters {} vs 1 iter {}",
            four.quality.circuit_height,
            one.quality.circuit_height
        );
    }

    #[test]
    fn ripup_restores_empty_array() {
        let c = presets::tiny();
        let out = SequentialRouter::new(&c, RouterParams::default()).run();
        let mut cost = out.cost.clone();
        for r in &out.routes {
            cost.remove_route(r);
        }
        assert!(cost.is_zero(), "removing every final route must zero the array");
    }

    #[test]
    fn work_counters_are_plausible() {
        let c = presets::tiny();
        let params = RouterParams::default();
        let out = SequentialRouter::new(&c, params).run();
        assert_eq!(out.work.wires_routed, (c.wire_count() * params.iterations) as u64);
        assert!(out.work.connections >= out.work.wires_routed);
        assert!(out.work.candidates >= out.work.connections);
        assert!(out.work.cells_examined >= out.work.candidates);
    }

    #[test]
    fn occupancy_recorded_per_iteration() {
        let c = presets::tiny();
        let out = SequentialRouter::new(&c, RouterParams::default().with_iterations(3)).run();
        assert_eq!(out.occupancy_by_iteration.len(), 3);
        assert_eq!(out.quality.occupancy_factor, out.occupancy_by_iteration[2]);
        // First iteration routes onto a progressively filling array; the
        // occupancy is positive for any non-trivial circuit.
        assert!(out.occupancy_by_iteration[0] > 0);
    }

    #[test]
    fn bnr_e_scale_run_completes() {
        let c = presets::bnr_e();
        let out = SequentialRouter::new(&c, RouterParams::default()).run();
        assert!(out.quality.circuit_height > 0);
        assert!(out.quality.occupancy_factor > 0);
    }
}
