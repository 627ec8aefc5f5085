//! The circuit-locality measure of §5.3.3.
//!
//! "The locality measure is a weighted average indicating the average
//! distance (in horizontal or vertical hops) between the processor
//! actually routing a wire segment, and the processor that owns the
//! region that segment lies in. [...] a locality measure of 0 indicates
//! that all segments were routed by the region owner, giving perfect
//! locality."
//!
//! We weight by route cells, which is segment length: a 40-cell segment
//! routed 2 hops from home contributes 80 hop·cells.

use crate::region::{ProcId, RegionMap};
use crate::route::{row_runs, Route};

/// The computed locality of one routed solution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityMeasure {
    /// Mean hops between routing processor and owning processor, weighted
    /// by cells. 0 = perfect locality.
    pub mean_hops: f64,
    /// Total route cells measured (the weight denominator).
    pub total_cells: u64,
    /// Fraction of cells routed by their owner (distance 0).
    pub owned_fraction: f64,
}

/// Computes the locality measure for a routed solution.
///
/// `routes[w]` is the final route of wire `w` and `proc_of_wire[w]` the
/// processor that routed it (from [`crate::Assignment`]).
pub fn locality_measure(
    routes: &[Route],
    proc_of_wire: &[ProcId],
    regions: &RegionMap,
) -> LocalityMeasure {
    assert_eq!(routes.len(), proc_of_wire.len(), "one route and one processor per wire");
    let mut total_cells = 0u64;
    let mut total_hops = 0u64;
    let mut owned_cells = 0u64;
    // A route's cover walked as row runs, each split among the regions
    // it crosses: one owner lookup per piece, not per cell.
    for (route, &p) in routes.iter().zip(proc_of_wire) {
        for (channel, x_lo, x_hi) in row_runs(route.cells()) {
            for (owner, lo, hi) in regions.split_run(channel, x_lo, x_hi) {
                let cells = u64::from(hi - lo) + 1;
                let d = regions.mesh_distance(p, owner) as u64;
                total_cells += cells;
                total_hops += d * cells;
                if d == 0 {
                    owned_cells += cells;
                }
            }
        }
    }
    LocalityMeasure {
        mean_hops: if total_cells == 0 { 0.0 } else { total_hops as f64 / total_cells as f64 },
        total_cells,
        owned_fraction: if total_cells == 0 {
            1.0
        } else {
            owned_cells as f64 / total_cells as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{assign, AssignmentStrategy};
    use crate::params::RouterParams;
    use crate::route::Segment;
    use crate::router::SequentialRouter;
    use locus_circuit::presets;

    #[test]
    fn all_local_routes_measure_zero() {
        let m = RegionMap::new(10, 340, 4); // 2x2 mesh
                                            // A route fully inside processor 0's region, routed by 0.
        let region = m.region(0);
        let route = Route::from_segments(vec![Segment::horizontal(
            region.c_lo,
            region.x_lo,
            region.x_lo + 3,
        )]);
        let lm = locality_measure(&[route], &[0], &m);
        assert_eq!(lm.mean_hops, 0.0);
        assert_eq!(lm.owned_fraction, 1.0);
    }

    #[test]
    fn remote_route_measures_distance() {
        let m = RegionMap::new(10, 340, 4); // 2x2 mesh: procs 0,1 / 2,3
                                            // A route fully inside processor 3's region, routed by 0 (2 hops).
        let r3 = m.region(3);
        let route = Route::from_segments(vec![Segment::horizontal(r3.c_lo, r3.x_lo, r3.x_lo + 4)]);
        let lm = locality_measure(&[route], &[0], &m);
        assert_eq!(lm.mean_hops, 2.0);
        assert_eq!(lm.owned_fraction, 0.0);
        assert_eq!(lm.total_cells, 5);
    }

    #[test]
    fn local_assignment_beats_round_robin() {
        let c = presets::bnr_e();
        let m = RegionMap::new(c.channels, c.grids, 16);
        let out = SequentialRouter::new(&c, RouterParams::default()).run();

        let local = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: None });
        let rr = assign(&c, &m, AssignmentStrategy::RoundRobin);
        let lm_local = locality_measure(&out.routes, &local.proc_of_wire, &m);
        let lm_rr = locality_measure(&out.routes, &rr.proc_of_wire, &m);
        assert!(
            lm_local.mean_hops < lm_rr.mean_hops,
            "local {:.3} should beat round robin {:.3}",
            lm_local.mean_hops,
            lm_rr.mean_hops
        );
    }

    #[test]
    fn locality_degrades_with_more_processors() {
        // §5.3.3: "As the number of processors is increased, the locality
        // of the circuit will be degraded."
        let c = presets::bnr_e();
        let out = SequentialRouter::new(&c, RouterParams::default()).run();
        let mut prev = 0.0;
        for p in [4usize, 16] {
            let m = RegionMap::new(c.channels, c.grids, p);
            let a = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: None });
            let lm = locality_measure(&out.routes, &a.proc_of_wire, &m);
            assert!(
                lm.mean_hops >= prev,
                "locality should degrade with P: {prev:.3} -> {:.3}",
                lm.mean_hops
            );
            prev = lm.mean_hops;
        }
    }

    #[test]
    fn empty_input_is_perfect() {
        let m = RegionMap::new(10, 340, 4);
        let lm = locality_measure(&[], &[], &m);
        assert_eq!(lm.mean_hops, 0.0);
        assert_eq!(lm.owned_fraction, 1.0);
    }
}
